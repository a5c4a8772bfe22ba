#ifndef HWF_PARALLEL_THREAD_POOL_H_
#define HWF_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hwf {

/// A fixed-size worker pool executing submitted tasks FIFO.
///
/// The pool is the substrate for the task-based (morsel-driven) parallelism
/// used throughout the library: higher layers split work into fixed-size
/// tasks (default 20 000 tuples, following the paper's Hyper configuration)
/// and submit them here. The calling thread of ParallelFor also participates
/// in task execution, so a pool with zero workers degrades gracefully to
/// serial execution.
class ThreadPool {
 public:
  /// Creates a pool with exactly max(`num_threads`, 0) workers. A
  /// worker-less pool runs every ParallelFor inline on the calling thread,
  /// which is the deterministic serial baseline used by differential tests
  /// and the executor's per-partition tasks.
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Process-wide default pool with hardware_concurrency() - 1 workers (the
  /// caller thread acts as the remaining worker in ParallelFor). The
  /// HWF_THREADS environment variable overrides the worker count (useful
  /// for exercising multi-threaded code paths on machines with few cores).
  static ThreadPool& Default();

  /// Number of worker threads (excluding the caller thread).
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Effective parallelism for sizing task counts: workers + caller.
  int parallelism() const { return num_workers() + 1; }

  /// Enqueues a task. Thread-safe.
  void Submit(std::function<void()> task);

  /// Runs one pending task on the calling thread if any is queued.
  /// Returns false when the queue was empty.
  bool RunOnePending();

 private:
  friend class TaskGroup;  // Waits on cv_ with pending state under mutex_.

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

/// Tracks a set of tasks submitted to a ThreadPool and joins them.
///
/// Wait() lets the calling thread execute pending pool tasks while waiting,
/// which both avoids idle callers and makes nested usage deadlock-free.
/// When the queue is empty and tasks are still running on workers, Wait()
/// sleeps on the pool's condition variable and is woken by exactly two
/// events: the group's last task finishing, or new (helpable) work being
/// enqueued. There is no timed polling.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  ~TaskGroup() { Wait(); }

  /// Submits `task` to the pool and tracks its completion.
  void Run(std::function<void()> task);

  /// Blocks until every task submitted through Run has finished.
  void Wait();

 private:
  ThreadPool& pool_;
  int pending_ = 0;  // guarded by pool_.mutex_
};

}  // namespace hwf

#endif  // HWF_PARALLEL_THREAD_POOL_H_
