// Bounded-backpressure fault injection: prove VariantSpec::max_inflight_seals
// actually bounds memory when the background flusher is slow or dead, that
// stalled ingests resume (after the flusher catches up OR after a flush
// failure — never a hang), that kReject surfaces structured
// resource_exhausted errors — including over real HTTP — without
// corrupting subsequent ingest, and that a mid-stream DropIndex during a
// stalled ingest tears down cleanly. The throttle is the pool itself:
// tests park every worker of the background ThreadPool behind a latch, so
// seals queue deterministically and the cap is hit on an exact ingest
// ordinal.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "palm/api.h"
#include "palm/factory.h"
#include "palm/http_server.h"
#include "palm/sharded_streaming_index.h"
#include "series/distance.h"
#include "stream/tp.h"
#include "tests/test_util.h"

namespace coconut {
namespace palm {
namespace {

using core::SearchOptions;
using stream::BackpressurePolicy;
using stream::StreamingIndex;
using stream::StreamingStats;
using testutil::PoolThrottle;

constexpr size_t kLength = 32;

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 32, .num_segments = 8,
                           .bits_per_segment = 8};
}

/// Spins until `predicate` holds (the stall we are waiting for is
/// deterministic — this only absorbs scheduling latency).
template <typename Pred>
bool WaitFor(Pred predicate, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

class BackpressureFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("backpressure_fault");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    collection_ = testutil::RandomWalkCollection(256, kLength, 99);
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", kLength)
               .TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  VariantSpec TpSpec(size_t cap, BackpressurePolicy policy,
                     ThreadPool* background) {
    VariantSpec spec;
    spec.sax = TestSax();
    spec.family = IndexFamily::kCTree;
    spec.mode = StreamMode::kTP;
    spec.buffer_entries = 8;
    spec.async_ingest = true;
    spec.background_pool = background;
    spec.max_inflight_seals = cap;
    spec.backpressure_policy = policy;
    return spec;
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
  series::SeriesCollection collection_{kLength};
};

/// One buffering stream mode. TP/BTP and CLSM share one write core, so
/// the cap, the policies and every ordinal below must hold for each.
struct StreamCase {
  const char* name;
  IndexFamily family;
  StreamMode mode;
};

class BackpressureParityTest
    : public BackpressureFaultTest,
      public ::testing::WithParamInterface<StreamCase> {
 protected:
  VariantSpec Spec(size_t cap, BackpressurePolicy policy,
                   ThreadPool* background) {
    VariantSpec spec = TpSpec(cap, policy, background);
    spec.family = GetParam().family;
    spec.mode = GetParam().mode;
    return spec;
  }
};

// kBlock under a parked flusher: seals_inflight never exceeds the cap
// (that is the memory bound — each in-flight seal pins buffer_entries
// series), the producer stalls on the exact admission that would bust it,
// and resumes to completion once the flusher runs again.
TEST_P(BackpressureParityTest, BlockPolicyBoundsInflightSealsAndResumes) {
  ThreadPool pool(2);
  PoolThrottle throttle(&pool);
  throttle.Park();

  auto stream = CreateStreamingIndex(Spec(2, BackpressurePolicy::kBlock,
                                          &pool),
                                     mgr_.get(), "block", nullptr,
                                     raw_.get())
                    .TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection_).ok());

  std::atomic<size_t> acknowledged{0};
  Status ingest_status;
  std::thread producer([&] {
    for (size_t i = 0; i < collection_.size(); ++i) {
      ingest_status =
          stream->Ingest(i, collection_[i], static_cast<int64_t>(i));
      if (!ingest_status.ok()) return;
      acknowledged.store(i + 1, std::memory_order_release);
    }
  });

  // The stall ordinal is deterministic: buffer 8 × cap 2 → two detaches at
  // entries 8 and 16, stall at the admission of entry 24 (0-based 23).
  ASSERT_TRUE(WaitFor([&] {
    return stream->SnapshotStats().ingest_stalls >= 1;
  }));
  EXPECT_EQ(acknowledged.load(), 23u);

  // While stalled, the bound holds and the producer makes no progress.
  for (int i = 0; i < 20; ++i) {
    const StreamingStats stats = stream->SnapshotStats();
    EXPECT_LE(stats.seals_inflight, 2u);
    EXPECT_LE(stats.buffered, 8u);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(acknowledged.load(), 23u);

  throttle.Release();
  producer.join();
  ASSERT_TRUE(ingest_status.ok()) << ingest_status.ToString();
  EXPECT_EQ(acknowledged.load(), collection_.size());
  ASSERT_TRUE(stream->FlushAll().ok());

  const StreamingStats stats = stream->SnapshotStats();
  EXPECT_EQ(stats.entries, collection_.size());
  EXPECT_EQ(stats.seals_inflight, 0u);
  EXPECT_GE(stats.ingest_stalls, 1u);
  EXPECT_EQ(stats.ingest_rejects, 0u);
  EXPECT_GE(stats.stall_ms_p99, stats.stall_ms_p50);
  EXPECT_GT(stats.stall_ms_p99, 0.0);

  // Nothing was lost or reordered while paced: exact ≡ brute force.
  for (int q = 0; q < 4; ++q) {
    auto query = testutil::NoisyCopy(collection_, q * 31, 0.4, q);
    auto oracle = testutil::BruteForceKnn(collection_, query, 1);
    auto got = stream->ExactSearch(query, {}, nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().found);
    EXPECT_NEAR(got.value().distance_sq, oracle[0].distance_sq, 1e-6);
  }
}

// kReject under a parked flusher: the admission that would bust the cap
// returns ResourceExhausted (no hang, nothing admitted), repeated ingests
// keep rejecting, and once the flusher drains the stream accepts again —
// with everything admitted before/after the rejects answering exactly.
TEST_P(BackpressureParityTest,
       RejectPolicySurfacesResourceExhaustedWithoutCorruption) {
  ThreadPool pool(2);
  PoolThrottle throttle(&pool);
  throttle.Park();

  auto stream = CreateStreamingIndex(Spec(1, BackpressurePolicy::kReject,
                                          &pool),
                                     mgr_.get(), "reject", nullptr,
                                     raw_.get())
                    .TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection_).ok());

  size_t admitted = 0;
  Status first_reject;
  for (size_t i = 0; i < collection_.size(); ++i) {
    const Status st =
        stream->Ingest(i, collection_[i], static_cast<int64_t>(i));
    if (!st.ok()) {
      first_reject = st;
      break;
    }
    ++admitted;
  }
  // Deterministic: buffer 8 × cap 1 → detach at entry 8, reject at the
  // admission of entry 16 (15 admitted ordinals 0..14... plus the 8
  // sealed ones = 15). 0-based: entries 0..14 admitted, 15 rejected.
  EXPECT_EQ(admitted, 15u);
  ASSERT_FALSE(first_reject.ok());
  EXPECT_EQ(first_reject.code(), StatusCode::kResourceExhausted);

  // Still at the cap: further ingests reject too, state does not wedge.
  const Status again =
      stream->Ingest(admitted, collection_[admitted],
                     static_cast<int64_t>(admitted));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(stream->SnapshotStats().ingest_rejects, 2u);
  EXPECT_LE(stream->SnapshotStats().seals_inflight, 1u);

  throttle.Release();
  ASSERT_TRUE(stream->FlushAll().ok());
  // Exactly the admitted prefix survives the drain; no rejected entry
  // slipped in.
  EXPECT_EQ(stream->num_entries(), admitted);

  // Recovered: the previously rejected entries are admissible now. A live
  // flusher can still lag a tight producer loop for a moment, so the
  // client-side contract applies — retry resource_exhausted until the
  // strand catches up; anything else is a real failure.
  for (size_t i = admitted; i < collection_.size(); ++i) {
    Status st;
    ASSERT_TRUE(WaitFor([&] {
      st = stream->Ingest(i, collection_[i], static_cast<int64_t>(i));
      return st.ok() || st.code() != StatusCode::kResourceExhausted;
    }));
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  ASSERT_TRUE(stream->FlushAll().ok());
  EXPECT_EQ(stream->num_entries(), collection_.size());
  for (int q = 0; q < 4; ++q) {
    auto query = testutil::NoisyCopy(collection_, 10 + q * 37, 0.4, q);
    auto oracle = testutil::BruteForceKnn(collection_, query, 1);
    auto got = stream->ExactSearch(query, {}, nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().found);
    EXPECT_NEAR(got.value().distance_sq, oracle[0].distance_sq, 1e-6);
  }
}

// A *failing* background flush must not strand a blocked producer: the
// error wakes the kBlock wait, surfaces through Ingest and FlushAll, and
// the index refuses further work instead of corrupting.
TEST_P(BackpressureParityTest, FailingFlushUnblocksStalledIngest) {
  ThreadPool pool(1);
  PoolThrottle throttle(&pool);
  throttle.Park();

  VariantSpec spec = Spec(1, BackpressurePolicy::kBlock, &pool);
  spec.seal_test_hook = [] {
    return Status::IoError("injected flush failure");
  };
  auto stream = CreateStreamingIndex(spec, mgr_.get(), "fail", nullptr,
                                     raw_.get())
                    .TakeValue();
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection_).ok());

  Status ingest_status;
  std::thread producer([&] {
    for (size_t i = 0; i < collection_.size(); ++i) {
      ingest_status =
          stream->Ingest(i, collection_[i], static_cast<int64_t>(i));
      if (!ingest_status.ok()) return;
    }
  });
  // Producer stalls at entry 16's admission (buffer 8 × cap 1, seal
  // parked); the flusher then *fails* instead of retiring the seal.
  ASSERT_TRUE(WaitFor([&] {
    return stream->SnapshotStats().ingest_stalls >= 1;
  }));
  throttle.Release();
  producer.join();

  ASSERT_FALSE(ingest_status.ok());
  EXPECT_EQ(ingest_status.code(), StatusCode::kIoError);
  const Status drained = stream->FlushAll();
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.code(), StatusCode::kIoError);
  // Dead, not wedged: further ingests return the error immediately.
  const Status after =
      stream->Ingest(0, collection_[0], 0);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.code(), StatusCode::kIoError);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BackpressureParityTest,
    ::testing::Values(
        StreamCase{"CTreeTp", IndexFamily::kCTree, StreamMode::kTP},
        StreamCase{"ClsmBtp", IndexFamily::kClsm, StreamMode::kBTP},
        StreamCase{"ClsmPp", IndexFamily::kClsm, StreamMode::kPP}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return std::string(info.param.name);
    });

// Sharded: the cap is per shard — each shard's flusher is an independent
// strand — so K shards bound K × cap seals total, every shard
// individually at or under the cap, and the aggregate snapshot sums the
// rejects.
TEST_F(BackpressureFaultTest, ShardedBackpressureBoundsEveryShard) {
  ThreadPool pool(2);
  PoolThrottle throttle(&pool);
  throttle.Park();

  ShardedStreamingIndex::Options opts;
  opts.spec = TpSpec(1, BackpressurePolicy::kReject, &pool);
  opts.num_shards = 2;
  auto sharded =
      ShardedStreamingIndex::Create(mgr_.get(), "shbp", opts).TakeValue();

  size_t admitted = 0;
  size_t rejects = 0;
  for (size_t i = 0; i < collection_.size(); ++i) {
    const Status st =
        sharded->Ingest(i, collection_[i], static_cast<int64_t>(i));
    if (st.ok()) {
      ++admitted;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      ++rejects;
    }
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      EXPECT_LE(sharded->ShardStats(s).seals_inflight, 1u);
    }
  }
  EXPECT_GT(rejects, 0u);
  EXPECT_EQ(sharded->SnapshotStats().ingest_rejects, rejects);

  throttle.Release();
  ASSERT_TRUE(sharded->FlushAll().ok());
  EXPECT_EQ(sharded->num_entries(), admitted);
  // Post-drain the stream accepts again and answers over what it holds.
  ASSERT_TRUE(sharded->Ingest(collection_.size(), collection_[0], 9999).ok());
  ASSERT_TRUE(sharded->FlushAll().ok());
  EXPECT_EQ(sharded->num_entries(), admitted + 1);
}

// Service-level: DropIndex issued while an IngestBatch is stalled on the
// cap tombstones the name immediately (the stalled batch holds only the
// handle's op_mutex, never the registry lock), queues behind the batch on
// that op_mutex, and tears the stream down cleanly once the flusher
// drains — no hang, no crash, name released.
TEST_F(BackpressureFaultTest, DropIndexDuringStalledIngestTearsDownCleanly) {
  const std::string root =
      std::filesystem::temp_directory_path().string() + "/bp_drop_svc";
  std::filesystem::remove_all(root);
  auto service = api::Service::Create(root).TakeValue();

  ThreadPool pool(1);
  PoolThrottle throttle(&pool);
  throttle.Park();

  VariantSpec spec = TpSpec(1, BackpressurePolicy::kBlock, &pool);
  spec.num_shards = 2;
  ASSERT_TRUE(service->CreateStream("s", spec).ok());

  series::SeriesCollection batch(kLength);
  std::vector<int64_t> timestamps;
  for (size_t i = 0; i < 128; ++i) {
    batch.Append(collection_[i]);
    timestamps.push_back(static_cast<int64_t>(i));
  }
  Result<api::IngestBatchReport> ingest_result =
      Status::Internal("not run");
  std::thread producer([&] {
    ingest_result = service->IngestBatch("s", batch, timestamps);
  });
  StreamingIndex* live = service->stream_index("s");
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(WaitFor([&] {
    return live->SnapshotStats().ingest_stalls >= 1;
  }));

  std::thread dropper([&] {
    const Result<api::DropIndexResponse> dropped = service->DropIndex("s");
    ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
    EXPECT_TRUE(dropped.value().dropped);
    EXPECT_TRUE(dropped.value().streaming);
  });
  // Give the drop a moment to queue behind the stalled batch, then let
  // the flusher run: the batch completes, the drop drains and deletes.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  throttle.Release();
  producer.join();
  dropper.join();

  ASSERT_TRUE(ingest_result.ok()) << ingest_result.status().ToString();
  EXPECT_GE(ingest_result.value().ingest_stalls, 1u);
  EXPECT_EQ(ingest_result.value().ingested, 128u);

  // Gone: the name resolves to nothing and is immediately reusable.
  EXPECT_EQ(service->IngestBatch("s", batch, timestamps).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(service->CreateStream("s", spec).ok());
  ASSERT_TRUE(service->DropIndex("s").ok());
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------- HTTP

/// Minimal blocking loopback client (a compact cousin of the one in
/// http_e2e_test.cc — this suite only needs POST + status + body).
class MiniClient {
 public:
  explicit MiniClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~MiniClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  /// One-shot POST; returns {status, body} or {-1, ...} on socket failure.
  std::pair<int, std::string> Post(const std::string& target,
                                   const std::string& body) {
    std::string request = "POST " + target +
                          " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                          "Content-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return {-1, "send failed"};
      }
      sent += static_cast<size_t>(n);
    }
    std::string buffer;
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // orderly close (Connection: close) or error
    }
    const size_t sp = buffer.find(' ');
    if (sp == std::string::npos) return {-1, buffer};
    const int status = std::atoi(buffer.c_str() + sp + 1);
    const size_t header_end = buffer.find("\r\n\r\n");
    return {status, header_end == std::string::npos
                        ? std::string()
                        : buffer.substr(header_end + 4)};
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

// Acceptance pin: kReject crosses the wire as a structured
// resource_exhausted ApiError (HTTP 429) and the stream keeps working
// afterwards — ingest state is not corrupted by the refused batch. The
// throttle here is the real shared pool (wire-created streams use it),
// parked from within the process.
TEST_F(BackpressureFaultTest, RejectModeSurfacesStructuredApiErrorOverHttp) {
  const std::string root =
      std::filesystem::temp_directory_path().string() + "/bp_http_svc";
  std::filesystem::remove_all(root);
  auto service = api::Service::Create(root).TakeValue();
  HttpServerOptions options;
  options.port = 0;
  options.threads = 2;
  auto server = HttpServer::Start(service.get(), options).TakeValue();

  PoolThrottle throttle(SharedBackgroundPool());
  throttle.Park();

  // create_stream with the new wire knobs, sharded × async.
  api::CreateStreamRequest create;
  create.stream = "live";
  create.spec = TpSpec(1, BackpressurePolicy::kReject,
                       /*background=*/nullptr);  // wire => shared pool
  create.spec.num_shards = 2;
  {
    MiniClient client(server->port());
    ASSERT_TRUE(client.connected());
    auto [status, body] =
        client.Post("/api/v1/create_stream", create.ToJsonString());
    ASSERT_EQ(status, 200) << body;
    EXPECT_NE(body.find("CTree-TP-S2-async"), std::string::npos) << body;
  }

  // Batches against the parked pool: while a shard still has headroom
  // the service reports truthful partial progress (200, ingested < batch,
  // the reject visible in ingest_rejects — a client must never be told to
  // re-send an already-admitted prefix); once every shard is saturated,
  // the very first series rejects and the structured 429 surfaces. Each
  // partial round admits at least one series into bounded headroom, so
  // the loop reaches the 429 deterministically.
  api::IngestBatchRequest ingest;
  ingest.stream = "live";
  ingest.batch = series::SeriesCollection(kLength);
  for (size_t i = 0; i < 64; ++i) {
    ingest.batch.Append(collection_[i]);
    ingest.timestamps.push_back(static_cast<int64_t>(i));
  }
  bool saw_partial = false;
  bool saw_reject = false;
  for (int attempt = 0; attempt < 32 && !saw_reject; ++attempt) {
    MiniClient client(server->port());
    ASSERT_TRUE(client.connected());
    auto [status, body] =
        client.Post("/api/v1/ingest_batch", ingest.ToJsonString());
    if (status == 200) {
      auto report =
          api::IngestBatchReport::FromJson(JsonParse(body).TakeValue());
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      // Progress was made but the batch was cut short at the cap.
      EXPECT_LT(report.value().ingested, 64u) << body;
      EXPECT_GE(report.value().ingest_rejects, 1u) << body;
      saw_partial = true;
      continue;
    }
    ASSERT_EQ(status, 429) << body;
    EXPECT_NE(body.find("\"code\":\"resource_exhausted\""),
              std::string::npos)
        << body;
    auto parsed = api::ApiError::FromJson(JsonParse(body).TakeValue());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value().http_status, 429);
    saw_reject = true;
  }
  EXPECT_TRUE(saw_partial);  // the truthful-prefix path was exercised
  ASSERT_TRUE(saw_reject);   // and the zero-progress 429 was reached

  // Un-park, drain, and ingest again: no corruption, and the drain report
  // carries the cumulative reject counter over the wire.
  throttle.Release();
  {
    MiniClient client(server->port());
    ASSERT_TRUE(client.connected());
    api::DrainStreamRequest drain;
    drain.stream = "live";
    auto [status, body] =
        client.Post("/api/v1/drain_stream", drain.ToJsonString());
    ASSERT_EQ(status, 200) << body;
    auto report =
        api::DrainStreamReport::FromJson(JsonParse(body).TakeValue());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GE(report.value().ingest_rejects, 1u);
    EXPECT_EQ(report.value().seals_inflight, 0u);
  }
  {
    // Small enough (one detach at most) that a live flusher can never be
    // at the cap mid-batch: must succeed outright.
    api::IngestBatchRequest after;
    after.stream = "live";
    after.batch = series::SeriesCollection(kLength);
    for (size_t i = 0; i < 12; ++i) {
      after.batch.Append(collection_[64 + i]);
      after.timestamps.push_back(static_cast<int64_t>(64 + i));
    }
    MiniClient client(server->port());
    ASSERT_TRUE(client.connected());
    auto [status, body] =
        client.Post("/api/v1/ingest_batch", after.ToJsonString());
    ASSERT_EQ(status, 200) << body;
    auto report =
        api::IngestBatchReport::FromJson(JsonParse(body).TakeValue());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().ingested, 12u);
  }

  server.reset();
  service.reset();
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace palm
}  // namespace coconut
