#include "apps/cg.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "simmpi/collectives.hpp"

namespace redcr::apps {

namespace {
constexpr int kHaloLeftTag = 200;   // carries a rank's leftmost element
constexpr int kHaloRightTag = 201;  // carries a rank's rightmost element
}  // namespace

CgSolver::CgSolver(CgSpec spec, int rank, int world_size)
    : spec_(spec), rank_(rank), world_size_(world_size) {
  if (spec_.rows_per_rank == 0)
    throw std::invalid_argument("CgSolver: rows_per_rank must be > 0");
  if (!(spec_.shift > 0.0))
    throw std::invalid_argument("CgSolver: shift must be > 0 for SPD");
  require_quantity(spec_.compute_per_iteration,
                   "CgSolver: compute_per_iteration");
  if (rank < 0 || rank >= world_size)
    throw std::invalid_argument("CgSolver: bad rank/world");
  // Deterministic, rank-dependent right-hand side (smooth + varying).
  b_.resize(spec_.rows_per_rank);
  for (std::size_t i = 0; i < b_.size(); ++i) {
    const auto global =
        static_cast<double>(static_cast<std::size_t>(rank) * b_.size() + i);
    b_[i] = 1.0 + 0.5 * std::sin(0.01 * global);
  }
  reset();
}

void CgSolver::reset() {
  x_.assign(spec_.rows_per_rank, 0.0);
  r_ = b_;  // r = b - A·0
  p_ = r_;
  rho_ = 0.0;
  for (const double v : r_) rho_ += v * v;
  // rho_ here is only the *local* contribution; the true global rho is
  // established by the first iteration's allreduce chain. Seed it with the
  // local value so residual_sq() is meaningful before any iteration.
  converged_ = false;
  iterations_run_ = 0;
}

std::vector<double> CgSolver::apply_tridiag(const std::vector<double>& v,
                                            double shift, double left_halo,
                                            double right_halo) {
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double left = i == 0 ? left_halo : v[i - 1];
    const double right = i + 1 == v.size() ? right_halo : v[i + 1];
    out[i] = (2.0 + shift) * v[i] - left - right;
  }
  return out;
}

sim::CoTask<std::pair<double, double>> CgSolver::exchange_halo(
    simmpi::Comm& comm, double leftmost, double rightmost) {
  const simmpi::Rank me = comm.rank();
  const int n = comm.size();
  std::pair<double, double> halos{0.0, 0.0};  // Dirichlet outside the domain
  if (n == 1) co_return halos;

  simmpi::Request from_left, from_right;
  // Neighbours' rightmost arrives tagged kHaloRightTag, leftmost tagged
  // kHaloLeftTag.
  if (me > 0) from_left = comm.irecv(me - 1, kHaloRightTag);
  if (me + 1 < n) from_right = comm.irecv(me + 1, kHaloLeftTag);
  if (me > 0)
    co_await comm.send(me - 1, kHaloLeftTag, simmpi::scalar_payload(leftmost));
  if (me + 1 < n)
    co_await comm.send(me + 1, kHaloRightTag,
                       simmpi::scalar_payload(rightmost));
  if (from_left) {
    simmpi::Message m = co_await wait(std::move(from_left));
    halos.first = m.payload.values()[0];
  }
  if (from_right) {
    simmpi::Message m = co_await wait(std::move(from_right));
    halos.second = m.payload.values()[0];
  }
  co_return halos;
}

sim::CoTask<double> CgSolver::global_sum(simmpi::Comm& comm, double value,
                                         int call_id) {
  simmpi::Payload reduced = co_await simmpi::allreduce(
      comm, simmpi::scalar_payload(value), call_id);
  co_return reduced.values()[0];
}

sim::CoTask<void> CgSolver::run(simmpi::Comm& comm, long start_iteration,
                                BoundaryHook hook) {
  assert(comm.size() == world_size_);
  assert(comm.rank() == rank_);

  // Establish the global rho for the state we are starting from.
  double local_rr = 0.0;
  for (const double v : r_) local_rr += v * v;
  double rho = co_await global_sum(comm, local_rr, 2);
  rho_ = rho;
  converged_ = rho < spec_.tolerance_sq;

  for (long iter = start_iteration; iter < spec_.max_iterations; ++iter) {
    if (co_await hook(iter)) {
      // A coordinated checkpoint was taken at this boundary: persist the
      // state that re-running from iteration `iter` requires.
      saved_ = State{iter, x_, r_, p_, rho, converged_};
    }
    if (converged_) break;  // uniform: every rank saw the same rho

    // q = A p  — one halo exchange, then the local tridiagonal stencil.
    const auto [left, right] =
        co_await exchange_halo(comm, p_.front(), p_.back());
    const std::vector<double> q = apply_tridiag(p_, spec_.shift, left, right);

    co_await comm.compute(spec_.compute_per_iteration);

    // alpha = rho / (p, q)
    double local_pq = 0.0;
    for (std::size_t i = 0; i < p_.size(); ++i) local_pq += p_[i] * q[i];
    const double pq = co_await global_sum(comm, local_pq, 0);
    const double alpha = rho / pq;

    for (std::size_t i = 0; i < x_.size(); ++i) {
      x_[i] += alpha * p_[i];
      r_[i] -= alpha * q[i];
    }

    // rho' = (r, r); beta = rho'/rho
    local_rr = 0.0;
    for (const double v : r_) local_rr += v * v;
    const double rho_next = co_await global_sum(comm, local_rr, 1);
    const double beta = rho_next / rho;
    for (std::size_t i = 0; i < p_.size(); ++i) p_[i] = r_[i] + beta * p_[i];
    rho = rho_next;
    rho_ = rho;
    ++iterations_run_;
    converged_ = rho < spec_.tolerance_sq;
  }
}

void CgSolver::restore(long iteration) {
  if (iteration == 0) {
    reset();
    return;
  }
  if (!saved_ || saved_->iteration != iteration)
    throw std::logic_error("CgSolver::restore: no snapshot for iteration");
  x_ = saved_->x;
  r_ = saved_->r;
  p_ = saved_->p;
  rho_ = saved_->rho;
  converged_ = saved_->converged;
  iterations_run_ = iteration;
}

}  // namespace redcr::apps
