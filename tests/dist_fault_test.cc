// Failure-mode tests for the distributed layer: a SIGKILLed shard
// process, a stalled (accepting-but-silent) shard, a torn binary frame,
// and a shard that refuses at the application level must all surface as
// STRUCTURED errors naming the culprit — never wrong answers, never
// hangs. Degraded-read mode must serve the surviving key ranges and mark
// the answers; health must show up in server_stats.
//
// Most cases run against in-process shard servers (HttpServer::Stop()
// gives the same connection-refused the coordinator sees after a crash)
// so they execute under TSan too; the one true SIGKILL-mid-traffic case
// forks a real shard process and is skipped under TSan (fork + sanitizer
// runtime don't mix). A shard that refuses part of a sub-batch under
// backpressure, and series the coordinator never mapped, must leave every
// answer's global id correct or refused.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "dist/binary_codec.h"
#include "dist/coordinator.h"
#include "palm/api.h"
#include "palm/http_client.h"
#include "palm/http_server.h"
#include "tests/test_util.h"

#if defined(__SANITIZE_THREAD__)
#define COCONUT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define COCONUT_TSAN_BUILD 1
#endif
#endif

namespace coconut {
namespace palm {
namespace dist {
namespace {

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 16, .num_segments = 4,
                           .bits_per_segment = 8};
}

VariantSpec StreamSpec(size_t num_shards) {
  VariantSpec spec;
  spec.sax = TestSax();
  spec.family = IndexFamily::kCTree;
  spec.mode = StreamMode::kTP;
  spec.buffer_entries = 16;
  spec.num_shards = num_shards;
  if (num_shards > 1) spec.async_ingest = true;
  return spec;
}

struct Shard {
  std::unique_ptr<api::Service> service;
  std::unique_ptr<HttpServer> server;
};

std::string TestRoot(const std::string& name) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "coconut_dist_fault" / name)
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  return root;
}

std::unique_ptr<Shard> StartShard(const std::string& root) {
  auto shard = std::make_unique<Shard>();
  std::filesystem::create_directories(root);
  shard->service = api::Service::Create(root).TakeValue();
  shard->server = HttpServer::Start(shard->service.get(), {}).TakeValue();
  return shard;
}

api::IngestBatchRequest MakeBatch(const series::SeriesCollection& data,
                                  size_t begin, size_t count,
                                  const std::string& stream = "live") {
  api::IngestBatchRequest ingest;
  ingest.stream = stream;
  ingest.batch = series::SeriesCollection(data.length());
  for (size_t i = begin; i < begin + count && i < data.size(); ++i) {
    ingest.batch.Append(data[i]);
    ingest.timestamps.push_back(static_cast<int64_t>(i));
  }
  return ingest;
}

TEST(DistFaultTest, DeadShardFailsReadsWithStructured503ByDefault) {
  const std::string root = TestRoot("dead_default");
  std::vector<std::unique_ptr<Shard>> shards;
  CoordinatorOptions options;
  for (size_t s = 0; s < 3; ++s) {
    shards.push_back(StartShard(root + "/shard" + std::to_string(s)));
    options.shards.push_back(
        ShardEndpoint{"127.0.0.1", shards.back()->server->port()});
  }
  options.client.connect_timeout_ms = 500;
  options.client.request_timeout_ms = 2000;
  const std::string dead_endpoint = options.shards[1].ToString();
  auto coordinator = Coordinator::Create(std::move(options)).TakeValue();

  const auto data = testutil::RandomWalkCollection(90, 16, /*seed=*/1);
  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = StreamSpec(3);
  ASSERT_TRUE(coordinator->CreateStream(create).ok());
  ASSERT_TRUE(coordinator->IngestBatch(MakeBatch(data, 0, 90)).ok());

  // "Kill" shard 1: Stop() closes the listener, so the coordinator sees
  // exactly what a crashed process leaves behind — connection refused.
  shards[1]->server->Stop();

  api::QueryRequest query;
  query.index = "live";
  query.query = testutil::NoisyCopy(data, 3, 0.2, 42);
  auto result = coordinator->Query(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find(dead_endpoint), std::string::npos)
      << result.status().message();

  // Health shows the culprit; the survivors stay green.
  const api::ServerStatsResponse stats = coordinator->ServerStats();
  ASSERT_EQ(stats.shards.size(), 3u);
  EXPECT_TRUE(stats.shards[0].healthy);
  EXPECT_FALSE(stats.shards[1].healthy);
  EXPECT_TRUE(stats.shards[2].healthy);
  EXPECT_GT(stats.shards[1].consecutive_failures, 0u);
}

TEST(DistFaultTest, DegradedReadsServeSurvivingRangesAndMarkAnswers) {
  const std::string root = TestRoot("degraded");
  std::vector<std::unique_ptr<Shard>> shards;
  CoordinatorOptions options;
  for (size_t s = 0; s < 3; ++s) {
    shards.push_back(StartShard(root + "/shard" + std::to_string(s)));
    options.shards.push_back(
        ShardEndpoint{"127.0.0.1", shards.back()->server->port()});
  }
  options.client.connect_timeout_ms = 500;
  options.client.request_timeout_ms = 2000;
  options.degraded_reads = true;
  auto coordinator = Coordinator::Create(std::move(options)).TakeValue();

  const auto data = testutil::RandomWalkCollection(120, 16, /*seed=*/2);
  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = StreamSpec(3);
  ASSERT_TRUE(coordinator->CreateStream(create).ok());
  ASSERT_TRUE(coordinator->IngestBatch(MakeBatch(data, 0, 120)).ok());

  // Baseline answers while everyone is up, for every probe we re-ask
  // after the kill: un-degraded, and definitely not wrong later.
  std::vector<api::QueryRequest> probes;
  std::vector<api::QueryReport> baseline;
  for (size_t q = 0; q < 12; ++q) {
    api::QueryRequest query;
    query.index = "live";
    query.query = testutil::NoisyCopy(data, q * 7, 0.2, 300 + q);
    auto result = coordinator->Query(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result.value().degraded);
    probes.push_back(query);
    baseline.push_back(result.value());
  }

  shards[2]->server->Stop();

  // Degraded answers must be marked, and must be a SUBSET answer: either
  // the same match as the full answer (its shard survived) or a
  // different-but-valid match from the surviving ranges — never a bogus
  // id, never silently un-marked.
  size_t still_best = 0;
  for (size_t q = 0; q < probes.size(); ++q) {
    auto result = coordinator->Query(probes[q]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().degraded);
    if (result.value().found) {
      EXPECT_LT(result.value().series_id, data.size());
      EXPECT_GE(result.value().distance, baseline[q].distance)
          << "a degraded answer can never beat the full-cluster answer";
      if (result.value().series_id == baseline[q].series_id) ++still_best;
    }
  }
  // With 3 roughly balanced shards, most matches live on survivors.
  EXPECT_GT(still_best, 0u);

  // Writes are NOT degraded-tolerant: ingest through a dead shard is a
  // structured unavailable warning about partial application.
  auto ingest = coordinator->IngestBatch(MakeBatch(data, 0, 30));
  ASSERT_FALSE(ingest.ok());
  EXPECT_EQ(ingest.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(ingest.status().message().find("partially applied"),
            std::string::npos)
      << ingest.status().message();
}

TEST(DistFaultTest, AllShardsDownStillStructuredUnderDegradedReads) {
  const std::string root = TestRoot("all_down");
  auto shard = StartShard(root + "/shard0");
  CoordinatorOptions options;
  options.shards.push_back(ShardEndpoint{"127.0.0.1", shard->server->port()});
  options.client.connect_timeout_ms = 300;
  options.client.request_timeout_ms = 1000;
  options.degraded_reads = true;
  auto coordinator = Coordinator::Create(std::move(options)).TakeValue();

  const auto data = testutil::RandomWalkCollection(20, 16, /*seed=*/3);
  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = StreamSpec(1);
  ASSERT_TRUE(coordinator->CreateStream(create).ok());
  ASSERT_TRUE(coordinator->IngestBatch(MakeBatch(data, 0, 20)).ok());
  shard->server->Stop();

  api::QueryRequest query;
  query.index = "live";
  query.query = testutil::NoisyCopy(data, 0, 0.2, 9);
  auto result = coordinator->Query(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(DistFaultTest, StalledShardTimesOutAsUnavailable) {
  // A shard that accepts the connection and then goes silent (wedged
  // process, partitioned network) must trip the request timeout, not
  // hang the coordinator forever.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const uint16_t stalled_port = ntohs(addr.sin_port);

  ShardClientOptions client_options;
  client_options.connect_timeout_ms = 500;
  client_options.request_timeout_ms = 300;
  ShardClient client(ShardEndpoint{"127.0.0.1", stalled_port},
                     client_options);
  const auto before = std::chrono::steady_clock::now();
  auto result = client.Call("server_stats", "{}", /*idempotent=*/true);
  const auto elapsed = std::chrono::steady_clock::now() - before;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("127.0.0.1"), std::string::npos);
  // Bounded: one attempt + one retry, well under a second each.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  EXPECT_FALSE(client.health().healthy);
  ::close(listen_fd);
}

TEST(DistFaultTest, TornAndMislabeledBinaryFramesAreStructuredErrors) {
  // Straight to a real shard server over the wire: a truncated frame, a
  // corrupted frame, and a frame without the negotiated Content-Type
  // must each produce a structured 400 — and a well-formed retry right
  // after must succeed (the connection survives, nothing got applied).
  const std::string root = TestRoot("torn");
  auto shard = StartShard(root + "/shard0");
  ASSERT_TRUE(shard->service
                  ->CreateStream("live", StreamSpec(1))
                  .ok());

  const auto data = testutil::RandomWalkCollection(8, 16, /*seed=*/5);
  const std::string frame = EncodeIngestFrame(MakeBatch(data, 0, 8));
  BlockingHttpClient client("127.0.0.1", shard->server->port());
  const std::vector<std::pair<std::string, std::string>> bin_headers = {
      {"Content-Type", std::string(kBinaryIngestContentType)}};

  // Torn mid-frame (half the bytes lost in flight).
  auto torn = client.Post("/api/v1/ingest_batch_bin",
                          frame.substr(0, frame.size() / 2), bin_headers);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_EQ(torn.value().status, 400);
  EXPECT_NE(torn.value().body.find("binary ingest frame"),
            std::string::npos)
      << torn.value().body;

  // Bit flip in the payload: CRC catches it.
  std::string corrupt = frame;
  corrupt[corrupt.size() / 2] ^= 0x10;
  auto flipped =
      client.Post("/api/v1/ingest_batch_bin", corrupt, bin_headers);
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  EXPECT_EQ(flipped.value().status, 400);

  // Valid frame, wrong Content-Type: refused by negotiation, with the
  // expected type named.
  auto mislabeled = client.Post("/api/v1/ingest_batch_bin", frame,
                                {{"Content-Type", "application/json"}});
  ASSERT_TRUE(mislabeled.ok()) << mislabeled.status().ToString();
  EXPECT_EQ(mislabeled.value().status, 400);
  EXPECT_NE(mislabeled.value().body.find(kBinaryIngestContentType),
            std::string::npos)
      << mislabeled.value().body;

  // Nothing was applied by the three failures, and the channel still
  // works: the clean frame ingests all 8.
  auto clean = client.Post("/api/v1/ingest_batch_bin", frame, bin_headers);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean.value().status, 200);
  EXPECT_NE(clean.value().body.find("\"ingested\":8"), std::string::npos)
      << clean.value().body;
}

TEST(DistFaultTest, CoordinatorRecontactsRestartedShard) {
  // A shard that went away and came back (new process, same endpoint)
  // must be reachable again through the same ShardClient: the retry
  // reconnects from scratch for idempotent calls.
  const std::string root = TestRoot("restart");
  auto shard = StartShard(root + "/shard0");
  const uint16_t port = shard->server->port();

  CoordinatorOptions options;
  options.shards.push_back(ShardEndpoint{"127.0.0.1", port});
  options.client.connect_timeout_ms = 500;
  options.client.request_timeout_ms = 2000;
  auto coordinator = Coordinator::Create(std::move(options)).TakeValue();

  const auto data = testutil::RandomWalkCollection(30, 16, /*seed=*/8);
  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = StreamSpec(1);
  ASSERT_TRUE(coordinator->CreateStream(create).ok());
  ASSERT_TRUE(coordinator->IngestBatch(MakeBatch(data, 0, 30)).ok());
  api::QueryRequest query;
  query.index = "live";
  query.query = testutil::NoisyCopy(data, 4, 0.2, 77);
  ASSERT_TRUE(coordinator->Query(query).ok());

  // Bounce the shard on the same port. Its in-memory state is gone — the
  // restarted server has no 'live' stream, so the coordinator must relay
  // the shard's structured NotFound (a wrong answer or a hang would mean
  // the stale connection was reused badly).
  shard->server->Stop();
  shard = StartShard(root + "/shard0_reborn");
  HttpServerOptions reuse;
  reuse.port = port;
  auto reborn = HttpServer::Start(shard->service.get(), reuse);
  if (!reborn.ok()) {
    GTEST_SKIP() << "could not rebind port " << port << ": "
                 << reborn.status().ToString();
  }
  shard->server->Stop();
  shard->server = reborn.TakeValue();

  auto after = coordinator->Query(query);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound);
  EXPECT_NE(after.status().message().find("live"), std::string::npos);
  EXPECT_TRUE(coordinator->ServerStats().shards[0].healthy);
}

/// One coordinator over one in-process shard, with a stream whose shard
/// refuses admissions once one seal is in flight (kReject): with the
/// shared background pool parked, the shard admits 15 series (buffer 8,
/// one detach at entry 8) and refuses the 16th.
struct RejectingStream {
  std::unique_ptr<Shard> shard;
  std::unique_ptr<Coordinator> coordinator;

  explicit RejectingStream(const std::string& root) {
    shard = StartShard(root + "/shard0");
    CoordinatorOptions options;
    options.shards.push_back(
        ShardEndpoint{"127.0.0.1", shard->server->port()});
    coordinator = Coordinator::Create(std::move(options)).TakeValue();
    api::CreateStreamRequest create;
    create.stream = "live";
    create.spec = StreamSpec(1);
    create.spec.buffer_entries = 8;
    create.spec.async_ingest = true;
    create.spec.max_inflight_seals = 1;
    create.spec.backpressure_policy = stream::BackpressurePolicy::kReject;
    EXPECT_TRUE(coordinator->CreateStream(create).ok());
  }

  void Drain() {
    api::DrainStreamRequest drain;
    drain.stream = "live";
    ASSERT_TRUE(coordinator->DrainStream(drain).ok());
  }

  /// Exact self-queries for series [0, n): timestamps equal global ids
  /// (MakeBatch), so every answer's id must equal its timestamp — a shard
  /// ordinal the coordinator failed to count shifts later ids by one.
  void ExpectIdsMatchTimestamps(const series::SeriesCollection& data,
                                size_t n,
                                const std::vector<bool>& admitted) {
    for (size_t i = 0; i < n; ++i) {
      api::QueryRequest query;
      query.index = "live";
      query.query.assign(data[i].begin(), data[i].end());
      query.exact = true;
      auto result = coordinator->Query(query);
      ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
      ASSERT_TRUE(result.value().found) << i;
      EXPECT_EQ(result.value().series_id,
                static_cast<uint64_t>(result.value().timestamp))
          << "self-query " << i;
      if (admitted[i]) {
        EXPECT_EQ(result.value().series_id, i);
      }
    }
  }
};

TEST(DistFaultTest, ShardRejectMidBatchKeepsIdsAligned) {
  const auto data = testutil::RandomWalkCollection(47, 16, /*seed=*/31);
  RejectingStream stream(TestRoot("reject_partial"));
  std::vector<bool> admitted(data.size(), false);
  {
    testutil::PoolThrottle throttle(SharedBackgroundPool());
    throttle.Park();
    // The shard admits a prefix and reports it truthfully; the refused
    // series burned a shard ordinal all the same.
    auto partial = stream.coordinator->IngestBatch(MakeBatch(data, 0, 40));
    ASSERT_FALSE(partial.ok());
    EXPECT_EQ(partial.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(partial.status().message().find("admitted 15 of 40"),
              std::string::npos)
        << partial.status().message();
    throttle.Release();
  }
  std::fill(admitted.begin(), admitted.begin() + 15, true);
  stream.Drain();
  ASSERT_TRUE(stream.coordinator->IngestBatch(MakeBatch(data, 40, 7)).ok());
  std::fill(admitted.begin() + 40, admitted.end(), true);
  stream.Drain();
  stream.ExpectIdsMatchTimestamps(data, data.size(), admitted);
}

TEST(DistFaultTest, ShardRejectWithNoProgressKeepsIdsAligned) {
  const auto data = testutil::RandomWalkCollection(27, 16, /*seed=*/32);
  RejectingStream stream(TestRoot("reject_zero"));
  std::vector<bool> admitted(data.size(), false);
  {
    testutil::PoolThrottle throttle(SharedBackgroundPool());
    throttle.Park();
    ASSERT_TRUE(stream.coordinator->IngestBatch(MakeBatch(data, 0, 15)).ok());
    // The shard is at its cap: the first series of the next batch is
    // refused (a structured 429 with zero progress), burning one ordinal.
    auto refused = stream.coordinator->IngestBatch(MakeBatch(data, 15, 5));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
    throttle.Release();
  }
  std::fill(admitted.begin(), admitted.begin() + 15, true);
  stream.Drain();
  ASSERT_TRUE(stream.coordinator->IngestBatch(MakeBatch(data, 20, 7)).ok());
  std::fill(admitted.begin() + 20, admitted.end(), true);
  stream.Drain();
  stream.ExpectIdsMatchTimestamps(data, data.size(), admitted);
}

TEST(DistFaultTest, SeriesTheCoordinatorNeverMappedAreRefused) {
  // Series ingested straight into a shard's service carry shard ordinals
  // the coordinator never mapped: a query that lands on one must be a
  // structured Internal naming the shard, never a mistranslated id.
  const std::string root = TestRoot("unmapped");
  auto shard = StartShard(root + "/shard0");
  CoordinatorOptions options;
  options.shards.push_back(ShardEndpoint{"127.0.0.1", shard->server->port()});
  const std::string endpoint = options.shards[0].ToString();
  auto coordinator = Coordinator::Create(std::move(options)).TakeValue();
  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = StreamSpec(1);
  ASSERT_TRUE(coordinator->CreateStream(create).ok());

  const auto data = testutil::RandomWalkCollection(20, 16, /*seed=*/33);
  ASSERT_TRUE(coordinator->IngestBatch(MakeBatch(data, 0, 10)).ok());
  ASSERT_TRUE(shard->service->IngestBatch(MakeBatch(data, 10, 10)).ok());

  api::QueryRequest query;
  query.index = "live";
  query.exact = true;
  query.query.assign(data[3].begin(), data[3].end());
  auto mapped = coordinator->Query(query);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().series_id, 3u);

  query.query.assign(data[15].begin(), data[15].end());
  auto unmapped = coordinator->Query(query);
  ASSERT_FALSE(unmapped.ok());
  EXPECT_EQ(unmapped.status().code(), StatusCode::kInternal);
  EXPECT_NE(unmapped.status().message().find(endpoint), std::string::npos)
      << unmapped.status().message();
  EXPECT_NE(unmapped.status().message().find("local series id 15"),
            std::string::npos)
      << unmapped.status().message();
}

#ifndef COCONUT_TSAN_BUILD

TEST(DistFaultTest, SigkilledShardProcessMidTrafficIsStructured) {
  // The real thing: a forked shard PROCESS serving real sockets gets
  // SIGKILLed between batches. The coordinator must (a) report the
  // structured unavailable naming it, (b) keep serving once configured
  // for degraded reads — and at no point return a wrong answer.
  const std::string root = TestRoot("sigkill");

  // Shard 0 lives in this process; shard 1 is the victim child.
  auto local = StartShard(root + "/shard0");

  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: a complete shard server. _exit on any failure; the parent
    // sees a port of 0 and fails the test. Threads don't survive fork,
    // so everything is created post-fork.
    ::close(port_pipe[0]);
    uint16_t port = 0;
    auto service_result = api::Service::Create(root + "/shard1");
    if (service_result.ok()) {
      auto service = service_result.TakeValue();
      auto server_result = HttpServer::Start(service.get(), {});
      if (server_result.ok()) {
        auto server = server_result.TakeValue();
        port = server->port();
        (void)!::write(port_pipe[1], &port, sizeof(port));
        ::close(port_pipe[1]);
        ::pause();  // serve until SIGKILL
        _exit(0);
      }
    }
    (void)!::write(port_pipe[1], &port, sizeof(port));
    _exit(1);
  }
  ::close(port_pipe[1]);
  uint16_t child_port = 0;
  ASSERT_EQ(::read(port_pipe[0], &child_port, sizeof(child_port)),
            static_cast<ssize_t>(sizeof(child_port)));
  ::close(port_pipe[0]);
  ASSERT_NE(child_port, 0);

  CoordinatorOptions options;
  options.shards.push_back(ShardEndpoint{"127.0.0.1", local->server->port()});
  options.shards.push_back(ShardEndpoint{"127.0.0.1", child_port});
  options.client.connect_timeout_ms = 500;
  options.client.request_timeout_ms = 2000;
  options.degraded_reads = true;
  const std::string victim = options.shards[1].ToString();
  auto coordinator = Coordinator::Create(std::move(options)).TakeValue();

  const auto data = testutil::RandomWalkCollection(100, 16, /*seed=*/21);
  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = StreamSpec(2);
  ASSERT_TRUE(coordinator->CreateStream(create).ok());
  ASSERT_TRUE(coordinator->IngestBatch(MakeBatch(data, 0, 50)).ok());

  // SIGKILL mid-run, between two batches the coordinator sends.
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));

  auto ingest = coordinator->IngestBatch(MakeBatch(data, 50, 50));
  ASSERT_FALSE(ingest.ok());
  EXPECT_EQ(ingest.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(ingest.status().message().find(victim), std::string::npos)
      << ingest.status().message();
  EXPECT_NE(ingest.status().message().find("partially applied"),
            std::string::npos);

  // Degraded reads keep the surviving range answering, marked.
  api::QueryRequest query;
  query.index = "live";
  query.query = testutil::NoisyCopy(data, 10, 0.2, 99);
  auto result = coordinator->Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().degraded);
  if (result.value().found) {
    EXPECT_LT(result.value().series_id, data.size());
  }

  const api::ServerStatsResponse stats = coordinator->ServerStats();
  EXPECT_TRUE(stats.shards[0].healthy);
  EXPECT_FALSE(stats.shards[1].healthy);
}

#else

TEST(DistFaultTest, SigkilledShardProcessMidTrafficIsStructured) {
  GTEST_SKIP() << "fork-based kill tests are incompatible with TSan; the "
                  "Stop()-based cases above cover the coordinator side";
}

#endif  // COCONUT_TSAN_BUILD

}  // namespace
}  // namespace dist
}  // namespace palm
}  // namespace coconut
