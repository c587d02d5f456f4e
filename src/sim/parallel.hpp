// Run-level parallelism (docs/PARALLELISM.md): a ParallelStepper owns a
// fixed pool of worker threads and executes independent tasks — one driver
// run, one workload trace — concurrently, then barriers until all finish.
// Tasks share no mutable state and commit into their own result slots, so
// which worker runs which task is invisible in the results: output is
// bit-identical for any thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mac3d {

class ParallelStepper {
 public:
  /// `threads` is the total worker count including the calling thread
  /// (so `threads - 1` pool threads are spawned). 0 picks the hardware
  /// concurrency; 1 degrades to inline serial execution with no pool.
  explicit ParallelStepper(std::uint32_t threads = 0);
  ~ParallelStepper();

  ParallelStepper(const ParallelStepper&) = delete;
  ParallelStepper& operator=(const ParallelStepper&) = delete;

  /// Total worker count (pool threads + the calling thread).
  [[nodiscard]] std::uint32_t thread_count() const noexcept {
    return static_cast<std::uint32_t>(workers_.size()) + 1;
  }

  /// Execute fn(0) .. fn(count - 1) across the pool and barrier until all
  /// complete. Shards must touch pairwise-disjoint state. The first
  /// exception thrown by any shard is rethrown here after the barrier
  /// (which exception is first is unspecified when several shards throw
  /// concurrently).
  void for_shards(std::size_t count,
                  const std::function<void(std::size_t)>& fn);

  /// Run-level sharding: execute independent whole tasks (one driver run,
  /// one workload trace) across the pool. Equivalent to for_shards over
  /// the task list.
  void run_tasks(const std::vector<std::function<void()>>& tasks);

  /// Worker count the environment asks for (MAC3D_JOBS, else `fallback`).
  [[nodiscard]] static std::uint32_t env_jobs(std::uint32_t fallback = 1);

 private:
  void work();
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* job_ = nullptr;  // guarded
  std::size_t job_count_ = 0;                              // guarded
  std::size_t next_ = 0;                                   // guarded
  std::size_t pending_ = 0;                                // guarded
  std::uint64_t generation_ = 0;                           // guarded
  std::exception_ptr error_;                               // guarded
  bool stop_ = false;                                      // guarded
};

}  // namespace mac3d
