#include "qfr/spectra/raman.hpp"

#include <cmath>

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/eig.hpp"

namespace qfr::spectra {

namespace {

// Component weights of Eq. (4): trace-combination and the 6 unique tensor
// components (off-diagonals count twice in sum_ij).
constexpr double kTraceWeight = 1.5;
constexpr double kTensorWeight = 10.5;
const double kOffDiagonalMultiplicity[kAlphaComponents] = {1, 1, 1, 2, 2, 2};

void check_dalpha(const la::Matrix& dalpha, std::size_t n) {
  QFR_REQUIRE(dalpha.rows() == static_cast<std::size_t>(kAlphaComponents),
              "dalpha must have 6 rows (xx, yy, zz, xy, xz, yz)");
  QFR_REQUIRE(dalpha.cols() == n, "dalpha column count must equal 3N");
}

la::Vector trace_vector(const la::Matrix& dalpha) {
  la::Vector d(dalpha.cols(), 0.0);
  for (std::size_t c = 0; c < dalpha.cols(); ++c)
    d[c] = dalpha(0, c) + dalpha(1, c) + dalpha(2, c);
  return d;
}

}  // namespace

RamanSpectrum raman_spectrum_exact(const la::Matrix& h_mw,
                                   const la::Matrix& dalpha,
                                   std::span<const double> omega_cm,
                                   double sigma_cm) {
  const std::size_t n = h_mw.rows();
  check_dalpha(dalpha, n);
  RamanSpectrum spec;
  spec.omega_cm.assign(omega_cm.begin(), omega_cm.end());
  spec.intensity.assign(omega_cm.size(), 0.0);

  const la::EigResult eig = la::eigh(h_mw);
  const double norm = 1.0 / (std::sqrt(2.0 * units::kPi) * sigma_cm);
  for (std::size_t p = 0; p < n; ++p) {
    const double w_cm = std::sqrt(std::max(eig.values[p], 0.0)) *
                        units::kAuFrequencyToCm;
    // d alpha^{ij} / dQ_p = e_p . d^{ij}.
    double comp[kAlphaComponents];
    for (int c = 0; c < kAlphaComponents; ++c) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        acc += eig.vectors(i, p) * dalpha(c, i);
      comp[c] = acc;
    }
    const double tr = comp[0] + comp[1] + comp[2];
    double tensor = 0.0;
    for (int c = 0; c < kAlphaComponents; ++c)
      tensor += kOffDiagonalMultiplicity[c] * comp[c] * comp[c];
    const double r_p = kTraceWeight * tr * tr + kTensorWeight * tensor;
    if (r_p == 0.0) continue;
    for (std::size_t i = 0; i < omega_cm.size(); ++i) {
      const double t = (omega_cm[i] - w_cm) / sigma_cm;
      if (std::fabs(t) > 8.0) continue;
      spec.intensity[i] += r_p * norm * std::exp(-0.5 * t * t);
    }
  }
  return spec;
}

RamanSpectrum raman_spectrum_lanczos(const MatVec& h_mw, std::size_t n,
                                     const la::Matrix& dalpha,
                                     std::span<const double> omega_cm,
                                     double sigma_cm,
                                     const LanczosOptions& options,
                                     bool use_gagq, std::size_t threads) {
  check_dalpha(dalpha, n);
  RamanSpectrum spec;
  spec.omega_cm.assign(omega_cm.begin(), omega_cm.end());
  spec.intensity.assign(omega_cm.size(), 0.0);

  const la::Vector trace = trace_vector(dalpha);
  std::span<const double> starts[kAlphaComponents + 1] = {trace};
  for (int c = 0; c < kAlphaComponents; ++c) starts[c + 1] = dalpha.row(c);
  const std::vector<la::Vector> parts = broadened_components(
      h_mw, n, starts, omega_cm, sigma_cm, options, use_gagq, threads);
  // Summed in component order, so the spectrum does not depend on
  // `threads`.
  for (std::size_t c = 0; c < parts.size(); ++c) {
    if (parts[c].empty()) continue;
    const double weight =
        c == 0 ? kTraceWeight
               : kTensorWeight * kOffDiagonalMultiplicity[c - 1];
    la::axpy(weight, parts[c], spec.intensity);
  }
  return spec;
}

RamanSpectrum raman_spectrum_lanczos(const la::CsrMatrix& h_mw,
                                     const la::Matrix& dalpha,
                                     std::span<const double> omega_cm,
                                     double sigma_cm,
                                     const LanczosOptions& options,
                                     bool use_gagq, std::size_t threads) {
  const MatVec op = [&h_mw](std::span<const double> x, std::span<double> y) {
    h_mw.matvec(1.0, x, 0.0, y);
  };
  return raman_spectrum_lanczos(op, h_mw.rows(), dalpha, omega_cm, sigma_cm,
                                options, use_gagq, threads);
}

la::Vector vibrational_frequencies_cm(const la::Matrix& h_mw) {
  const la::Vector vals = la::eigvalsh(h_mw);
  la::Vector freq(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const double s = std::sqrt(std::fabs(vals[i])) * units::kAuFrequencyToCm;
    freq[i] = vals[i] >= 0.0 ? s : -s;
  }
  return freq;
}

la::Vector wavenumber_axis(double lo_cm, double hi_cm, std::size_t n) {
  QFR_REQUIRE(n >= 2 && hi_cm > lo_cm, "bad wavenumber axis");
  la::Vector axis(n);
  for (std::size_t i = 0; i < n; ++i)
    axis[i] = lo_cm + (hi_cm - lo_cm) * static_cast<double>(i) /
                          static_cast<double>(n - 1);
  return axis;
}

}  // namespace qfr::spectra
