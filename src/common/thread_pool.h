#ifndef COCONUT_COMMON_THREAD_POOL_H_
#define COCONUT_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace coconut {

/// Fixed-size worker pool for independent tasks (batched queries, parallel
/// run generation drivers). Tasks must not throw; error propagation happens
/// through whatever state the task closes over.
class ThreadPool {
 public:
  /// `threads` is clamped to at least 1.
  explicit ThreadPool(size_t threads) {
    const size_t n = threads == 0 ? 1 : threads;
    workers_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Never blocks.
  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
      queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
  }

  /// Blocks until every submitted task has finished.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and drained.
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu_);
        --outstanding_;
      }
      idle_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t outstanding_ = 0;
  bool stop_ = false;
};

/// Counts in-flight deferred tasks so a producer can block until a batch it
/// spawned (possibly across several pools) has fully completed.
class WaitGroup {
 public:
  void Add(size_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ += n;
  }

  void Done() {
    // Notify while holding the lock: a waiter may destroy this object the
    // moment Wait() returns, so the notifier must not touch cv_ after the
    // count is observably zero.
    std::lock_guard<std::mutex> lock(mu_);
    --count_;
    if (count_ == 0) cv_.notify_all();
  }

  /// Blocks until the count returns to zero.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

  size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t count_ = 0;
};

/// FIFO strand over a shared ThreadPool: tasks submitted to one executor
/// run one at a time, in submission order, on whatever pool worker is free.
/// This is how the streaming indexes defer seals, flushes and merge
/// cascades — ingestion enqueues and returns, the strand preserves the
/// exact sequential ordering the merge-determinism guarantees rely on, and
/// several indexes share one pool without interleaving their own work.
///
/// The executor must outlive every submitted task; the destructor drains.
class SerialExecutor {
 public:
  explicit SerialExecutor(ThreadPool* pool) : pool_(pool) {}

  ~SerialExecutor() { Drain(); }

  SerialExecutor(const SerialExecutor&) = delete;
  SerialExecutor& operator=(const SerialExecutor&) = delete;

  /// Enqueues one task after everything already submitted. Never blocks on
  /// the task's execution.
  void Submit(std::function<void()> task) {
    bool schedule = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
      if (!running_) {
        running_ = true;
        schedule = true;
      }
    }
    if (schedule) {
      pool_->Submit([this] { RunLoop(); });
    }
  }

  /// Blocks until every submitted task has finished (the drain barrier
  /// behind StreamingIndex::FlushAll).
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && !running_; });
  }

  /// Tasks submitted but not yet finished (includes the one running).
  size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size() + (running_ ? 1 : 0);
  }

 private:
  void RunLoop() {
    while (true) {
      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.empty()) {
          running_ = false;
          idle_cv_.notify_all();
          return;
        }
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  ThreadPool* pool_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  bool running_ = false;
};

/// The one fan-out loop: runs fn(i) for every i in [0, n), task i on
/// `executor_of(i)` — a ThreadPool or a SerialExecutor strand, or inline
/// when that returns null — and returns once all have finished. The
/// per-call WaitGroup keeps concurrent callers of shared executors
/// independent (ThreadPool::Wait would wait for everyone's tasks).
template <class ExecutorOf>
void RunOnEach(size_t n, const ExecutorOf& executor_of,
               const std::function<void(size_t)>& fn) {
  WaitGroup wg;
  for (size_t i = 0; i < n; ++i) {
    auto* executor = executor_of(i);
    if (executor == nullptr) {
      fn(i);
      continue;
    }
    wg.Add();
    executor->Submit([i, &wg, &fn] {
      fn(i);
      wg.Done();
    });
  }
  wg.Wait();
}

/// Process-wide pool for background streaming work (seals, buffer flushes,
/// merge cascades). Every async index that is not handed an explicit pool
/// shares this one, so a server full of streams contends for a bounded set
/// of workers instead of spawning threads per index.
inline ThreadPool* SharedBackgroundPool() {
  static ThreadPool pool(
      std::max<size_t>(2, std::thread::hardware_concurrency()));
  return &pool;
}

}  // namespace coconut

#endif  // COCONUT_COMMON_THREAD_POOL_H_
