#pragma once

#include <span>

#include "qfr/la/sparse.hpp"
#include "qfr/spectra/lanczos.hpp"

namespace qfr::spectra {

/// A computed Raman spectrum: intensity sampled on a wavenumber axis.
struct RamanSpectrum {
  la::Vector omega_cm;
  la::Vector intensity;
};

/// Polarizability-derivative rows in the fixed order
/// (xx, yy, zz, xy, xz, yz); each row is d alpha^{ij} / d xi over the 3N
/// mass-weighted Cartesian coordinates.
inline constexpr int kAlphaComponents = 6;

/// Orientation-averaged Raman intensity combination of the paper's Eq. (4):
///   R_p = 3/2 (sum_i d a_ii/dQ)^2 + 21/2 sum_ij (d a_ij/dQ)^2,
/// assembled from per-component spectral measures (Eq. 5):
///   I(w) = 3/2 S[d_tr] + 21/2 (S_xx + S_yy + S_zz + 2 S_xy + 2 S_xz + 2 S_yz).
///
/// Exact reference path: dense mass-weighted Hessian, full diagonalization.
RamanSpectrum raman_spectrum_exact(const la::Matrix& h_mw,
                                   const la::Matrix& dalpha,
                                   std::span<const double> omega_cm,
                                   double sigma_cm);

/// Large-scale path: matrix-free Lanczos + (optionally) GAGQ per component.
/// `h_mw` is any symmetric operator of dimension n (e.g. the sparse global
/// mass-weighted Hessian); this is the solver that avoids diagonalizing the
/// 3N x 3N matrix (paper Sec. V-E). The seven component solves run up to
/// `threads` at a time (see broadened_components); the spectrum is
/// bitwise the same for every `threads`.
RamanSpectrum raman_spectrum_lanczos(const MatVec& h_mw, std::size_t n,
                                     const la::Matrix& dalpha,
                                     std::span<const double> omega_cm,
                                     double sigma_cm,
                                     const LanczosOptions& options,
                                     bool use_gagq = true,
                                     std::size_t threads = 1);

/// Convenience adapter for a sparse Hessian.
RamanSpectrum raman_spectrum_lanczos(const la::CsrMatrix& h_mw,
                                     const la::Matrix& dalpha,
                                     std::span<const double> omega_cm,
                                     double sigma_cm,
                                     const LanczosOptions& options,
                                     bool use_gagq = true,
                                     std::size_t threads = 1);

/// Harmonic vibrational frequencies (cm^-1, ascending; negative eigenvalues
/// reported as negative wavenumbers) from a dense mass-weighted Hessian.
la::Vector vibrational_frequencies_cm(const la::Matrix& h_mw);

/// Uniform wavenumber axis helper.
la::Vector wavenumber_axis(double lo_cm, double hi_cm, std::size_t n);

}  // namespace qfr::spectra
