#pragma once

#include <span>

#include "qfr/la/sparse.hpp"
#include "qfr/spectra/lanczos.hpp"
#include "qfr/spectra/raman.hpp"

namespace qfr::spectra {

/// Infrared absorption spectrum: I_p ∝ sum_c (d mu_c / d Q_p)^2, the
/// dipole analogue of the Raman Eq. (4)/(5) machinery. An extension
/// beyond the paper's Raman focus — the fragment sweep already produces
/// the atomic polar tensor, so IR comes at the cost of three more matrix
/// functionals.
///
/// `dmu` has rows (x, y, z) over the 3N mass-weighted coordinates.

/// Exact reference path (dense mass-weighted Hessian).
RamanSpectrum ir_spectrum_exact(const la::Matrix& h_mw, const la::Matrix& dmu,
                                std::span<const double> omega_cm,
                                double sigma_cm);

/// Matrix-free path: one Lanczos + GAGQ run per Cartesian component, up
/// to `threads` at a time (see broadened_components); the spectrum is
/// bitwise the same for every `threads`.
RamanSpectrum ir_spectrum_lanczos(const MatVec& h_mw, std::size_t n,
                                  const la::Matrix& dmu,
                                  std::span<const double> omega_cm,
                                  double sigma_cm,
                                  const LanczosOptions& options,
                                  bool use_gagq = true,
                                  std::size_t threads = 1);

/// Convenience adapter for a sparse Hessian.
RamanSpectrum ir_spectrum_lanczos(const la::CsrMatrix& h_mw,
                                  const la::Matrix& dmu,
                                  std::span<const double> omega_cm,
                                  double sigma_cm,
                                  const LanczosOptions& options,
                                  bool use_gagq = true,
                                  std::size_t threads = 1);

}  // namespace qfr::spectra
