#include "qfr/spectra/lanczos.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <thread>
#include <vector>

#ifdef QFR_HAVE_OPENMP
#include <omp.h>
#endif

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/eig.hpp"

namespace qfr::spectra {

namespace {

// One classical Gram-Schmidt pass of w against the basis rows q:
// c = Q w, then w -= Q^T c. Rows go four at a time, so one sweep of w
// feeds four independent dot-product chains (or retires four rows): w is
// swept k/2 times per pass, where one dot + axpy per row sweeps it 2k.
void project_out(std::span<const double* const> q, std::span<double> w,
                 la::Vector& c) {
  const std::size_t k = q.size();
  const std::size_t n = w.size();
  const double* wp = w.data();
  c.resize(k);
  std::size_t r = 0;
  for (; r + 4 <= k; r += 4) {
    const double *q0 = q[r], *q1 = q[r + 1], *q2 = q[r + 2], *q3 = q[r + 3];
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double wi = wp[i];
      s0 += q0[i] * wi;
      s1 += q1[i] * wi;
      s2 += q2[i] * wi;
      s3 += q3[i] * wi;
    }
    c[r] = s0;
    c[r + 1] = s1;
    c[r + 2] = s2;
    c[r + 3] = s3;
  }
  for (; r < k; ++r) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += q[r][i] * wp[i];
    c[r] = s;
  }

  double* wo = w.data();
  r = 0;
  for (; r + 4 <= k; r += 4) {
    const double *q0 = q[r], *q1 = q[r + 1], *q2 = q[r + 2], *q3 = q[r + 3];
    const double c0 = c[r], c1 = c[r + 1], c2 = c[r + 2], c3 = c[r + 3];
    for (std::size_t i = 0; i < n; ++i)
      wo[i] -= c0 * q0[i] + c1 * q1[i] + c2 * q2[i] + c3 * q3[i];
  }
  for (; r < k; ++r) {
    const double cr = c[r];
    for (std::size_t i = 0; i < n; ++i) wo[i] -= cr * q[r][i];
  }
}

}  // namespace

LanczosResult lanczos(const MatVec& op, std::span<const double> start,
                      std::size_t n, const LanczosOptions& options) {
  QFR_REQUIRE(start.size() == n, "start vector size mismatch");
  QFR_REQUIRE(options.steps >= 1, "need at least one Lanczos step");

  // A non-finite seed (one NaN dalpha row from a corrupted fragment) would
  // silently poison every alpha/beta and produce a NaN spectrum; fail
  // loudly at the door instead.
  for (const double v : start)
    if (!std::isfinite(v))
      QFR_NUMERIC_FAIL("Lanczos start vector contains non-finite entries");

  LanczosResult res;
  res.start_norm = la::nrm2(start);
  QFR_REQUIRE(res.start_norm > 0.0, "Lanczos start vector is zero");

  const int k = std::min<std::size_t>(options.steps, n);
  // The basis, kept for full reorthogonalization: one heap vector per row
  // (a fresh contiguous k x n block costs resident pages up front), reached
  // through a pointer array for the blocked sweeps.
  std::vector<la::Vector> basis;
  std::vector<const double*> rows;
  basis.reserve(k);
  rows.reserve(k);
  la::Vector coeffs;

  basis.emplace_back(start.begin(), start.end());
  la::scal(1.0 / res.start_norm, basis.back());
  rows.push_back(basis.back().data());

  la::Vector w(n, 0.0);
  double beta_prev = 0.0;

  for (int j = 0; j < k; ++j) {
    op(basis.back(), w);
    if (j > 0) la::axpy(-beta_prev, basis[j - 1], w);
    const double alpha = la::dot(basis.back(), w);
    if (!std::isfinite(alpha))
      QFR_NUMERIC_FAIL("Lanczos diagonal coefficient alpha["
                       << j << "] is non-finite: the operator produced "
                          "NaN/Inf (corrupted Hessian entries?)");
    la::axpy(-alpha, basis.back(), w);
    res.alpha.push_back(alpha);
    res.steps = j + 1;

    // Classical Gram-Schmidt against the whole basis, repeated only when
    // the pass shrank ||w|| below 1/sqrt(2) of its norm before (the DGKS
    // test, as in ARPACK): that much cancellation leaves w visibly
    // non-orthogonal, and a second pass restores it.
    const double norm_before = la::nrm2(w);
    project_out(rows, w, coeffs);
    double beta = la::nrm2(w);
    if (beta < norm_before * std::sqrt(0.5)) {
      project_out(rows, w, coeffs);
      beta = la::nrm2(w);
    }
    if (!std::isfinite(beta))
      QFR_NUMERIC_FAIL("Lanczos off-diagonal coefficient beta["
                       << j << "] is non-finite: the operator produced "
                          "NaN/Inf (corrupted Hessian entries?)");
    if (j + 1 == k) {
      res.final_beta = beta;
      break;
    }
    if (beta < options.breakdown_tolerance) {
      res.breakdown = true;  // invariant subspace found: measure is exact
      break;
    }
    res.beta.push_back(beta);
    beta_prev = beta;
    la::Vector& next = basis.emplace_back(w);
    la::scal(1.0 / beta, next);
    rows.push_back(next.data());
  }
  return res;
}

namespace {

SpectralMeasure measure_from_tridiagonal(std::span<const double> diag,
                                         std::span<const double> sub,
                                         double start_norm) {
  const la::EigResult eig = la::eigh_tridiagonal_first_row(diag, sub);
  SpectralMeasure m;
  m.nodes = eig.values;
  m.weights.resize(eig.values.size());
  const double scale = start_norm * start_norm;
  for (std::size_t j = 0; j < eig.values.size(); ++j) {
    const double c = eig.vectors(0, j);
    m.weights[j] = scale * c * c;
  }
  return m;
}

}  // namespace

SpectralMeasure gauss_quadrature(const LanczosResult& lanczos_result) {
  return measure_from_tridiagonal(lanczos_result.alpha, lanczos_result.beta,
                                  lanczos_result.start_norm);
}

SpectralMeasure averaged_gauss_quadrature(const LanczosResult& lr) {
  const std::size_t k = lr.alpha.size();
  if (k < 2 || lr.beta.size() + 1 < k || lr.breakdown ||
      lr.final_beta <= 0.0) {
    // Breakdown or single step: the plain rule is already exact.
    return gauss_quadrature(lr);
  }
  // Spalevic's generalized averaged rule: with T_{l+1} available
  // (l + 1 = k), append the reversed T'_l coupled through beta_{l+1}:
  //   diag = (a_1, ..., a_{l+1}, a_l, ..., a_1)
  //   sub  = (b_1, ..., b_l, b_{l+1}, b_{l-1}, ..., b_1)
  // where b_{l+1} = final_beta. Degree of exactness >= 2l + 2 = 2k,
  // versus 2k - 1 for the plain k-point Gauss rule.
  const std::size_t l = k - 1;
  la::Vector diag(2 * l + 1), sub(2 * l);
  for (std::size_t i = 0; i <= l; ++i) diag[i] = lr.alpha[i];
  for (std::size_t i = 0; i < l; ++i) diag[l + 1 + i] = lr.alpha[l - 1 - i];
  for (std::size_t i = 0; i < l; ++i) sub[i] = lr.beta[i];
  sub[l] = lr.final_beta;
  for (std::size_t i = 1; i < l; ++i) sub[l + i] = lr.beta[l - 1 - i];
  return measure_from_tridiagonal(diag, sub, lr.start_norm);
}

SpectralMeasure exact_measure(const la::Matrix& a,
                              std::span<const double> d) {
  QFR_REQUIRE(a.rows() == a.cols() && d.size() == a.rows(),
              "exact_measure shape mismatch");
  const la::EigResult eig = la::eigh(a);
  SpectralMeasure m;
  m.nodes = eig.values;
  m.weights.resize(eig.values.size());
  for (std::size_t j = 0; j < eig.values.size(); ++j) {
    double c = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) c += d[i] * eig.vectors(i, j);
    m.weights[j] = c * c;
  }
  return m;
}

la::Vector broaden_to_wavenumbers(const SpectralMeasure& measure,
                                  std::span<const double> omega_cm,
                                  double sigma_cm) {
  QFR_REQUIRE(sigma_cm > 0.0, "smearing width must be positive");
  la::Vector out(omega_cm.size(), 0.0);
  const double norm = 1.0 / (std::sqrt(2.0 * units::kPi) * sigma_cm);
  for (std::size_t j = 0; j < measure.nodes.size(); ++j) {
    const double lambda = measure.nodes[j];
    const double w_cm =
        std::sqrt(std::max(lambda, 0.0)) * units::kAuFrequencyToCm;
    const double weight = measure.weights[j];
    if (weight == 0.0) continue;
    for (std::size_t i = 0; i < omega_cm.size(); ++i) {
      const double t = (omega_cm[i] - w_cm) / sigma_cm;
      if (std::fabs(t) > 8.0) continue;
      out[i] += weight * norm * std::exp(-0.5 * t * t);
    }
  }
  return out;
}

std::vector<la::Vector> broadened_components(
    const MatVec& op, std::size_t n,
    std::span<const std::span<const double>> starts,
    std::span<const double> omega_cm, double sigma_cm,
    const LanczosOptions& options, bool use_gagq, std::size_t threads) {
  std::vector<la::Vector> out(starts.size());
  auto solve = [&](std::size_t c) {
    if (la::nrm2(starts[c]) == 0.0) return;
    const LanczosResult lr = lanczos(op, starts[c], n, options);
    const SpectralMeasure m =
        use_gagq ? averaged_gauss_quadrature(lr) : gauss_quadrature(lr);
    out[c] = broaden_to_wavenumbers(m, omega_cm, sigma_cm);
  };
  threads = std::min(threads, starts.size());
  if (threads <= 1) {
    for (std::size_t c = 0; c < starts.size(); ++c) solve(c);
    return out;
  }

  // Components are handed out in index order; a failure is parked in its
  // slot so the one the in-order loop would raise first is rethrown.
  std::vector<std::exception_ptr> errors(starts.size());
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back([&] {
#ifdef QFR_HAVE_OPENMP
        // The budget counts threads, so the operator's own parallel loops
        // must not fan each component out across every core.
        omp_set_num_threads(1);
#endif
        for (std::size_t c = next++; c < starts.size(); c = next++) {
          try {
            solve(c);
          } catch (...) {
            errors[c] = std::current_exception();
          }
        }
      });
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return out;
}

}  // namespace qfr::spectra
