// A fixed-size worker pool. Used by the multi-threaded crawler, mirroring
// the paper's ~30 concurrent fetch threads.
#ifndef FOCUS_UTIL_THREAD_POOL_H_
#define FOCUS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace focus {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `task` for execution by a worker.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace focus

#endif  // FOCUS_UTIL_THREAD_POOL_H_
