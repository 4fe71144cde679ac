#pragma once

#include <functional>
#include <span>
#include <vector>

#include "qfr/la/matrix.hpp"

namespace qfr::spectra {

/// Abstract symmetric operator y = A x (sparse Hessian, dense matrix, ...).
using MatVec =
    std::function<void(std::span<const double>, std::span<double>)>;

/// Output of a k-step symmetric Lanczos process: the tridiagonal
/// coefficients of T_k (alpha: k diagonal entries, beta: k-1 couplings)
/// plus the norm of the start vector (needed to scale quadrature weights).
struct LanczosResult {
  la::Vector alpha;
  la::Vector beta;
  /// The coupling beta_k of the (k+1)-th, never-built basis vector; the
  /// GAGQ construction needs it (it is free to compute).
  double final_beta = 0.0;
  double start_norm = 0.0;
  int steps = 0;        ///< actual steps taken (may stop early on breakdown)
  bool breakdown = false;
};

/// Controls for the Lanczos iteration.
struct LanczosOptions {
  int steps = 100;
  double breakdown_tolerance = 1e-12;
};

/// Run the symmetric Lanczos process on `op` (dimension n) starting from
/// `start`, with full reorthogonalization: every step projects the new
/// vector out of the whole basis (classical Gram-Schmidt in 4-row blocks,
/// a second pass only when the DGKS test asks for it), which keeps the
/// basis orthonormal to working precision at O(k^2 n) cost, k ~ 100-200
/// for spectra. Throws InvalidArgument on a zero start vector.
LanczosResult lanczos(const MatVec& op, std::span<const double> start,
                      std::size_t n, const LanczosOptions& options);

/// A discrete spectral measure: sum_j weights[j] * delta(x - nodes[j]),
/// approximating d^T delta(x - A) d.
struct SpectralMeasure {
  la::Vector nodes;
  la::Vector weights;
};

/// Gauss quadrature from T_k: nodes are the Ritz values, weights are
/// |d|^2 (first eigenvector components)^2. (Paper Eq. 7.)
SpectralMeasure gauss_quadrature(const LanczosResult& lanczos_result);

/// Generalized averaged Gauss quadrature (GAGQ, Reichel-Spalevic-Tang;
/// paper Sec. V-E): from a k-step result, builds the (2k-1) x (2k-1)
/// averaged tridiagonal matrix with reversed-coefficient continuation and
/// returns its quadrature. Higher accuracy at negligible extra cost since
/// only small tridiagonal matrices are diagonalized.
SpectralMeasure averaged_gauss_quadrature(const LanczosResult& lanczos_result);

/// Exact measure from a dense symmetric matrix (the conventional
/// full-diagonalization path the paper replaces; the test baseline).
SpectralMeasure exact_measure(const la::Matrix& a,
                              std::span<const double> d);

/// Broaden a measure onto a frequency axis with Gaussian smearing after
/// mapping eigenvalues lambda (a.u.) to wavenumbers
/// omega = sqrt(max(lambda, 0)) * kAuFrequencyToCm.
/// (Paper Eq. 8: f(H) = g_sigma(omega - H).)
la::Vector broaden_to_wavenumbers(const SpectralMeasure& measure,
                                  std::span<const double> omega_cm,
                                  double sigma_cm);

/// The spectral contributions of several start vectors through one
/// operator (one per polarizability or dipole component): entry c is
/// broaden_to_wavenumbers of the Gauss (or, with use_gagq, GAGQ) measure
/// of lanczos(op, starts[c]), and is left empty for a zero start.
///
/// At most `threads` components run at a time, each on a thread scoped to
/// the call with a one-thread OpenMP team, so `op` must be safe to call
/// concurrently; `threads` <= 1 runs them in order on the calling thread.
/// Entries are bitwise the same for every `threads` when `op` is. A
/// failure surfaces as in the in-order loop: every thread is joined, then
/// the failure of the lowest component index is rethrown.
std::vector<la::Vector> broadened_components(
    const MatVec& op, std::size_t n,
    std::span<const std::span<const double>> starts,
    std::span<const double> omega_cm, double sigma_cm,
    const LanczosOptions& options, bool use_gagq, std::size_t threads);

}  // namespace qfr::spectra
