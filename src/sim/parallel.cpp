#include "sim/parallel.hpp"

#include <cstdlib>
#include <string>

namespace mac3d {

ParallelStepper::ParallelStepper(std::uint32_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads - 1);
  for (std::uint32_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ParallelStepper::~ParallelStepper() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ParallelStepper::for_shards(std::size_t count,
                                 const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    job_count_ = count;
    next_ = 0;
    pending_ = count;
    error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();

  // The calling thread participates: claim and run shards until the pool
  // drains the index space, then barrier on the last shard retiring.
  work();

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ParallelStepper::run_tasks(const std::vector<std::function<void()>>& tasks) {
  for_shards(tasks.size(), [&tasks](std::size_t index) { tasks[index](); });
}

std::uint32_t ParallelStepper::env_jobs(std::uint32_t fallback) {
  const char* raw = std::getenv("MAC3D_JOBS");
  if (raw == nullptr || *raw == '\0') return fallback;
  const long parsed = std::strtol(raw, nullptr, 10);
  if (parsed <= 0) return fallback;
  return static_cast<std::uint32_t>(parsed);
}

void ParallelStepper::work() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (job_ != nullptr && next_ < job_count_) {
    const std::size_t shard = next_++;
    const std::function<void(std::size_t)>* fn = job_;
    lock.unlock();
    std::exception_ptr caught;
    try {
      (*fn)(shard);
    } catch (...) {
      caught = std::current_exception();
    }
    lock.lock();
    if (caught != nullptr && error_ == nullptr) error_ = caught;
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void ParallelStepper::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this, seen] {
        return stop_ || (job_ != nullptr && generation_ != seen &&
                         next_ < job_count_);
      });
      if (stop_) return;
      seen = generation_;
    }
    work();
  }
}

}  // namespace mac3d
