#include "qfr/spectra/infrared.hpp"

#include <cmath>

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/eig.hpp"

namespace qfr::spectra {

namespace {
void check_dmu(const la::Matrix& dmu, std::size_t n) {
  QFR_REQUIRE(dmu.rows() == 3, "dmu must have 3 rows (x, y, z)");
  QFR_REQUIRE(dmu.cols() == n, "dmu column count must equal 3N");
}
}  // namespace

RamanSpectrum ir_spectrum_exact(const la::Matrix& h_mw, const la::Matrix& dmu,
                                std::span<const double> omega_cm,
                                double sigma_cm) {
  const std::size_t n = h_mw.rows();
  check_dmu(dmu, n);
  RamanSpectrum spec;
  spec.omega_cm.assign(omega_cm.begin(), omega_cm.end());
  spec.intensity.assign(omega_cm.size(), 0.0);

  const la::EigResult eig = la::eigh(h_mw);
  const double norm = 1.0 / (std::sqrt(2.0 * units::kPi) * sigma_cm);
  for (std::size_t p = 0; p < n; ++p) {
    const double w_cm =
        std::sqrt(std::max(eig.values[p], 0.0)) * units::kAuFrequencyToCm;
    double intensity = 0.0;
    for (int c = 0; c < 3; ++c) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        acc += eig.vectors(i, p) * dmu(c, i);
      intensity += acc * acc;
    }
    if (intensity == 0.0) continue;
    for (std::size_t i = 0; i < omega_cm.size(); ++i) {
      const double t = (omega_cm[i] - w_cm) / sigma_cm;
      if (std::fabs(t) > 8.0) continue;
      spec.intensity[i] += intensity * norm * std::exp(-0.5 * t * t);
    }
  }
  return spec;
}

RamanSpectrum ir_spectrum_lanczos(const MatVec& h_mw, std::size_t n,
                                  const la::Matrix& dmu,
                                  std::span<const double> omega_cm,
                                  double sigma_cm,
                                  const LanczosOptions& options,
                                  bool use_gagq, std::size_t threads) {
  check_dmu(dmu, n);
  RamanSpectrum spec;
  spec.omega_cm.assign(omega_cm.begin(), omega_cm.end());
  spec.intensity.assign(omega_cm.size(), 0.0);
  const std::span<const double> starts[3] = {dmu.row(0), dmu.row(1),
                                             dmu.row(2)};
  for (const la::Vector& part :
       broadened_components(h_mw, n, starts, omega_cm, sigma_cm, options,
                            use_gagq, threads))
    if (!part.empty()) la::axpy(1.0, part, spec.intensity);
  return spec;
}

RamanSpectrum ir_spectrum_lanczos(const la::CsrMatrix& h_mw,
                                  const la::Matrix& dmu,
                                  std::span<const double> omega_cm,
                                  double sigma_cm,
                                  const LanczosOptions& options,
                                  bool use_gagq, std::size_t threads) {
  const MatVec op = [&h_mw](std::span<const double> x, std::span<double> y) {
    h_mw.matvec(1.0, x, 0.0, y);
  };
  return ir_spectrum_lanczos(op, h_mw.rows(), dmu, omega_cm, sigma_cm,
                             options, use_gagq, threads);
}

}  // namespace qfr::spectra
