# Regenerates the golden WAL fixtures into a temporary directory and
# byte-compares every file with the checked-in copy. ctest runs it as
# wal_fixtures_reproducible; by hand:
#   cmake -DGENERATOR=build/generate_wal_fixtures \
#         -DGOLDEN_DIR=tests/testdata -DOUT_DIR=/tmp/wal_fixtures \
#         -P tests/testdata/check_wal_fixtures.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${GENERATOR}" "${OUT_DIR}" RESULT_VARIABLE status
                OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "generate_wal_fixtures failed: ${status}")
endif()

file(GLOB golden RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*.bin")
file(GLOB generated RELATIVE "${OUT_DIR}" "${OUT_DIR}/*.bin")
list(SORT golden)
list(SORT generated)
if(NOT golden STREQUAL generated)
  message(FATAL_ERROR "the generator writes [${generated}] but the "
                      "checked-in fixtures are [${golden}]")
endif()
set(differing "")
foreach(name IN LISTS golden)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN_DIR}/${name}" "${OUT_DIR}/${name}"
                  RESULT_VARIABLE differs)
  if(differs)
    list(APPEND differing "${name}")
  endif()
endforeach()
if(differing)
  message(FATAL_ERROR "regenerated fixtures differ from the checked-in "
                      "ones: ${differing}")
endif()
list(LENGTH golden count)
message(STATUS "${count} WAL fixtures reproduced byte for byte")
