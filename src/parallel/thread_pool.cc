#include "parallel/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "common/macros.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace hwf {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(num_threads, 0);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    int threads = hw > 1 ? static_cast<int>(hw) - 1 : 0;
    if (const char* env = std::getenv("HWF_THREADS")) {
      threads = std::atoi(env);
    }
    return new ThreadPool(threads);
  }();
  return *pool;
}

void ThreadPool::Submit(std::function<void()> task) {
  // Carry the submitter's ambient query id into the task so spans recorded
  // on whichever thread runs it attribute to the same query. Free for tasks
  // submitted outside any query (the common library-only case).
  if (const uint64_t query_id = obs::CurrentQueryId(); query_id != 0) {
    task = [query_id, inner = std::move(task)] {
      obs::ScopedQueryId scope(query_id);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  obs::Add(obs::Counter::kPoolTasksSubmitted);
  cv_.notify_one();
}

bool ThreadPool::RunOnePending() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  obs::Add(obs::Counter::kPoolTasksRunByCaller);
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    while (queue_.empty() && !shutdown_) {
      cv_.wait(lock);
      if (queue_.empty() && !shutdown_) {
        // Woken (group-completion broadcast or spurious) with nothing to do.
        obs::Add(obs::Counter::kPoolIdleWakeups);
      }
    }
    if (shutdown_ && queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

void TaskGroup::Run(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(pool_.mutex_);
    ++pending_;
  }
  ThreadPool* pool = &pool_;
  pool_.Submit([this, pool, task = std::move(task)] {
    task();
    bool done;
    {
      std::lock_guard<std::mutex> lock(pool->mutex_);
      done = --pending_ == 0;
    }
    // Once the decrement is unlocked, Wait() may return and destroy this
    // group, so only the pool (which outlives its tasks) is touched below.
    // The waiter checks pending_ under the pool mutex, so notifying after
    // the unlock cannot lose a wakeup. Broadcast only on the group's last
    // task: the waiter shares the pool's condition variable, so notify_one
    // could hand the wakeup to an idle worker instead.
    if (done) pool->cv_.notify_all();
  });
}

void TaskGroup::Wait() {
  // Help drain the pool while our tasks are outstanding. This keeps the
  // caller productive and avoids deadlock when the pool has no workers.
  std::unique_lock<std::mutex> lock(pool_.mutex_);
  while (pending_ != 0) {
    if (!pool_.queue_.empty()) {
      std::function<void()> task = std::move(pool_.queue_.front());
      pool_.queue_.pop_front();
      lock.unlock();
      obs::Add(obs::Counter::kPoolTasksRunByCaller);
      task();
      lock.lock();
      continue;
    }
    // Our remaining tasks are running on workers. Sleep until the last one
    // completes (notify_all above) or helpable work arrives (Submit's
    // notify_one may land here instead of on a worker).
    pool_.cv_.wait(lock);
    if (pending_ != 0 && pool_.queue_.empty()) {
      obs::Add(obs::Counter::kPoolIdleWakeups);
    }
  }
}

}  // namespace hwf
