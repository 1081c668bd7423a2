#include "apps/master_worker.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace redcr::apps {

namespace {
constexpr int kTaskTag = 400;
constexpr int kResultTag = 401;
}  // namespace

MasterWorker::MasterWorker(MasterWorkerSpec spec, int rank, int world_size)
    : spec_(spec), rank_(rank), world_size_(world_size) {
  if (world_size < 2)
    throw std::invalid_argument("MasterWorker: needs at least one worker");
  if (spec_.rounds <= 0)
    throw std::invalid_argument("MasterWorker: rounds must be > 0");
  require_quantity(spec_.base_task_cost, "MasterWorker: base_task_cost");
  reset();
}

void MasterWorker::reset() {
  accumulated_ = 0.0;
  tasks_completed_ = 0;
  saved_.reset();
}

double MasterWorker::task_value(long task_id) noexcept {
  // Integer-valued in double: the master's sum is exact regardless of the
  // completion order the wildcard receive observes.
  const auto v = static_cast<double>(task_id % 1000);
  return v * v;
}

util::Seconds MasterWorker::task_cost(long task_id) const noexcept {
  // Deliberately uneven task durations so workers finish out of order and
  // MPI_ANY_SOURCE genuinely matters.
  return spec_.base_task_cost *
         (1.0 + 0.75 * std::sin(static_cast<double>(task_id) * 1.7));
}

sim::CoTask<void> MasterWorker::run(simmpi::Comm& comm, long start_iteration,
                                    BoundaryHook hook) {
  const int workers = world_size_ - 1;
  for (long round = start_iteration; round < spec_.rounds; ++round) {
    if (co_await hook(round)) {
      saved_ = State{round, accumulated_, tasks_completed_};
    }
    if (comm.rank() == 0) {
      // Master: hand one task to every worker...
      for (int w = 1; w <= workers; ++w) {
        const long task_id = round * workers + (w - 1);
        co_await comm.send(w, kTaskTag,
                           simmpi::scalar_payload(static_cast<double>(task_id)));
      }
      // ...and collect the results in completion order (wildcard receive:
      // under redundancy this exercises the three-step envelope protocol so
      // all master replicas agree on the winner).
      for (int w = 0; w < workers; ++w) {
        simmpi::Message m = co_await comm.recv(simmpi::kAnySource, kResultTag);
        accumulated_ += m.payload.values()[0];
        ++tasks_completed_;
      }
    } else {
      simmpi::Message task = co_await comm.recv(0, kTaskTag);
      const long task_id = static_cast<long>(task.payload.values()[0]);
      co_await comm.compute(task_cost(task_id));
      co_await comm.send(0, kResultTag,
                         simmpi::scalar_payload(task_value(task_id)));
    }
  }
}

void MasterWorker::restore(long iteration) {
  if (iteration == 0) {
    reset();
    return;
  }
  if (!saved_ || saved_->round != iteration)
    throw std::logic_error("MasterWorker::restore: no snapshot for round");
  accumulated_ = saved_->accumulated;
  tasks_completed_ = saved_->tasks_completed;
}

double MasterWorker::expected_total(long rounds, int workers) {
  double total = 0.0;
  for (long t = 0; t < rounds * workers; ++t) total += task_value(t);
  return total;
}

}  // namespace redcr::apps
