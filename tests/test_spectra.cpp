#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "qfr/chem/protein.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/common/units.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/frag/assembly.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/eig.hpp"
#include "qfr/spectra/infrared.hpp"
#include "qfr/spectra/lanczos.hpp"
#include "qfr/spectra/raman.hpp"

namespace qfr::spectra {
namespace {

la::Matrix random_symmetric(std::size_t n, Rng& rng) {
  la::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  return m;
}

MatVec dense_op(const la::Matrix& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    la::gemv(la::Trans::kNo, 1.0, a, x, 0.0, y);
  };
}

// Integrate a function against a spectral measure.
double apply_measure(const SpectralMeasure& m,
                     const std::function<double(double)>& f) {
  double acc = 0.0;
  for (std::size_t i = 0; i < m.nodes.size(); ++i)
    acc += m.weights[i] * f(m.nodes[i]);
  return acc;
}

// Lanczos with two unconditional modified Gram-Schmidt passes of the new
// vector against every basis vector, one dot + axpy each: the loop the
// blocked classical Gram-Schmidt in lanczos() replaced, kept here as its
// differential reference.
LanczosResult reference_lanczos(const MatVec& op,
                                std::span<const double> start, std::size_t n,
                                int steps) {
  LanczosResult res;
  res.start_norm = la::nrm2(start);
  const int k = std::min<std::size_t>(steps, n);
  std::vector<la::Vector> basis;
  la::Vector q(start.begin(), start.end());
  la::scal(1.0 / res.start_norm, q);
  basis.push_back(q);
  la::Vector w(n, 0.0);
  double beta_prev = 0.0;
  la::Vector q_prev(n, 0.0);
  for (int j = 0; j < k; ++j) {
    op(basis.back(), w);
    if (j > 0) la::axpy(-beta_prev, q_prev, w);
    const double alpha = la::dot(basis.back(), w);
    la::axpy(-alpha, basis.back(), w);
    res.alpha.push_back(alpha);
    res.steps = j + 1;
    for (int pass = 0; pass < 2; ++pass)
      for (const auto& v : basis) la::axpy(-la::dot(v, w), v, w);
    const double beta = la::nrm2(w);
    if (j + 1 == k) {
      res.final_beta = beta;
      break;
    }
    if (beta < 1e-12) {
      res.breakdown = true;
      break;
    }
    res.beta.push_back(beta);
    q_prev = basis.back();
    beta_prev = beta;
    la::Vector next = w;
    la::scal(1.0 / beta, next);
    basis.push_back(std::move(next));
  }
  return res;
}

// Assembled mass-weighted Hessian and polarizability derivatives of an
// 8-residue protein: MFCC fragments through the model engine, then the
// Eq. (1) assembly, as the workflow builds them (dimension 3N > 180).
const frag::GlobalProperties& model_properties() {
  static const frag::GlobalProperties props = [] {
    frag::BioSystem sys;
    chem::ProteinBuildOptions popts;
    popts.n_residues = 8;
    popts.seed = 7;
    sys.chains.push_back(chem::build_synthetic_protein(popts));
    const frag::Fragmentation fr = frag::fragment_biosystem(sys);
    const engine::ModelEngine eng;
    std::vector<engine::FragmentResult> results;
    for (const frag::Fragment& f : fr.fragments)
      results.push_back(eng.compute(f.id, f.mol, f.bonds));
    return frag::assemble_global_properties(sys, fr.fragments, results);
  }();
  return props;
}

MatVec sparse_op(const la::CsrMatrix& h) {
  return [&h](std::span<const double> x, std::span<double> y) {
    h.matvec(1.0, x, 0.0, y);
  };
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A weighted path graph whose output at `poison` turns NaN once its input
// is nonzero there. The Krylov space of a start vector at coordinate s
// reaches one more coordinate per step, so that start fails at Lanczos
// step |s - poison| (alpha[|s - poison|] is non-finite), and a start that
// cannot reach `poison` within the step budget (or poison >= n) never
// fails.
MatVec poisoned_chain(std::size_t poison) {
  return [poison](std::span<const double> x, std::span<double> y) {
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i) {
      double v = (2.0 + 0.01 * static_cast<double>(i % 7)) * x[i];
      if (i > 0) v -= x[i - 1];
      if (i + 1 < n) v -= x[i + 1];
      y[i] = v;
    }
    if (poison < n && x[poison] != 0.0)
      y[poison] = std::numeric_limits<double>::quiet_NaN();
  };
}

// Type and message of the exception `solve` throws.
std::pair<std::string, std::string> thrown_by(
    const std::function<void()>& solve) {
  try {
    solve();
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  }
  return {"nothing thrown", ""};
}

double rel_l2(std::span<const double> a, std::span<const double> ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    num += (a[i] - ref[i]) * (a[i] - ref[i]);
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / den);
}

TEST(Lanczos, ZeroStartVectorThrows) {
  la::Matrix a = la::Matrix::identity(4);
  la::Vector d(4, 0.0);
  LanczosOptions opts;
  EXPECT_THROW(lanczos(dense_op(a), d, 4, opts), InvalidArgument);
}

TEST(Lanczos, NonFiniteStartVectorThrows) {
  la::Matrix a = la::Matrix::identity(4);
  la::Vector d(4, 1.0);
  d[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(lanczos(dense_op(a), d, 4, {}), NumericalError);
}

TEST(Lanczos, NonFiniteOperatorOutputThrowsInsteadOfNanSpectrum) {
  // A corrupted Hessian entry poisons the matvec from step one; the guard
  // must fail loudly instead of returning NaN alpha/beta.
  la::Matrix a = la::Matrix::identity(4);
  a(1, 1) = std::numeric_limits<double>::quiet_NaN();
  la::Vector d(4, 1.0);
  LanczosOptions opts;
  opts.steps = 4;
  EXPECT_THROW(lanczos(dense_op(a), d, 4, opts), NumericalError);
}

TEST(Lanczos, FullRunReproducesExactMeasure) {
  Rng rng(101);
  const std::size_t n = 24;
  const la::Matrix a = random_symmetric(n, rng);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);

  LanczosOptions opts;
  opts.steps = static_cast<int>(n);
  const LanczosResult lr = lanczos(dense_op(a), d, n, opts);
  const SpectralMeasure gauss = gauss_quadrature(lr);
  const SpectralMeasure exact = exact_measure(a, d);

  // Moments of the two measures must agree: d^T A^p d for p = 0..6.
  for (int p = 0; p <= 6; ++p) {
    auto f = [p](double x) { return std::pow(x, p); };
    EXPECT_NEAR(apply_measure(gauss, f), apply_measure(exact, f), 1e-8)
        << "moment " << p;
  }
}

TEST(Lanczos, MomentsExactUpTo2kMinus1) {
  // A k-point Gauss rule integrates polynomials of degree <= 2k-1 exactly.
  Rng rng(103);
  const std::size_t n = 40;
  const la::Matrix a = random_symmetric(n, rng);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);
  const int k = 6;
  LanczosOptions opts;
  opts.steps = k;
  const LanczosResult lr = lanczos(dense_op(a), d, n, opts);
  const SpectralMeasure gauss = gauss_quadrature(lr);
  const SpectralMeasure exact = exact_measure(a, d);
  for (int p = 0; p <= 2 * k - 1; ++p) {
    auto f = [p](double x) { return std::pow(x, p); };
    const double ref = apply_measure(exact, f);
    EXPECT_NEAR(apply_measure(gauss, f), ref,
                1e-9 * std::max(1.0, std::fabs(ref)))
        << "moment " << p;
  }
}

TEST(Lanczos, GagqMoreAccurateThanPlainGauss) {
  // For a smooth non-polynomial f, the averaged rule should beat the plain
  // k-point rule (it is exact through higher degree).
  Rng rng(107);
  const std::size_t n = 60;
  const la::Matrix a = random_symmetric(n, rng);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);
  const SpectralMeasure exact = exact_measure(a, d);
  auto f = [](double x) { return std::exp(-x * x); };
  const double ref = apply_measure(exact, f);

  double err_gauss = 0.0, err_gagq = 0.0;
  for (int k : {4, 6, 8, 10}) {
    LanczosOptions opts;
    opts.steps = k;
    const LanczosResult lr = lanczos(dense_op(a), d, n, opts);
    err_gauss += std::fabs(apply_measure(gauss_quadrature(lr), f) - ref);
    err_gagq +=
        std::fabs(apply_measure(averaged_gauss_quadrature(lr), f) - ref);
  }
  EXPECT_LT(err_gagq, err_gauss);
}

TEST(Lanczos, GagqMomentsExactThroughHigherDegree) {
  // GAGQ from k steps should reproduce moments beyond degree 2k-1.
  Rng rng(109);
  const std::size_t n = 50;
  const la::Matrix a = random_symmetric(n, rng);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);
  const int k = 5;
  LanczosOptions opts;
  opts.steps = k;
  const LanczosResult lr = lanczos(dense_op(a), d, n, opts);
  const SpectralMeasure plain = gauss_quadrature(lr);
  const SpectralMeasure avg = averaged_gauss_quadrature(lr);
  const SpectralMeasure exact = exact_measure(a, d);
  // Degree 2k: plain Gauss has an error; GAGQ should be much closer.
  auto f = [k](double x) { return std::pow(x, 2 * k); };
  const double ref = apply_measure(exact, f);
  const double e_plain = std::fabs(apply_measure(plain, f) - ref);
  const double e_avg = std::fabs(apply_measure(avg, f) - ref);
  EXPECT_LT(e_avg, 0.5 * e_plain + 1e-12);
}

TEST(Lanczos, BreakdownOnInvariantSubspaceGivesExactMeasure) {
  // Start vector = eigenvector: Lanczos terminates after one step and the
  // measure is a single exact delta.
  la::Matrix a{{2.0, 0.0}, {0.0, 5.0}};
  la::Vector d{1.0, 0.0};
  LanczosOptions opts;
  opts.steps = 2;
  const LanczosResult lr = lanczos(dense_op(a), d, 2, opts);
  EXPECT_TRUE(lr.breakdown);
  const SpectralMeasure m = gauss_quadrature(lr);
  ASSERT_EQ(m.nodes.size(), 1u);
  EXPECT_NEAR(m.nodes[0], 2.0, 1e-12);
  EXPECT_NEAR(m.weights[0], 1.0, 1e-12);
}

// Every operator input of a Lanczos run is a basis vector q_j: record
// them all and return max |Q^T Q - I|.
double basis_orthogonality_error(const MatVec& op,
                                 std::span<const double> start,
                                 std::size_t n, int steps) {
  std::vector<la::Vector> q;
  const MatVec recording = [&](std::span<const double> x,
                               std::span<double> y) {
    q.emplace_back(x.begin(), x.end());
    op(x, y);
  };
  LanczosOptions opts;
  opts.steps = steps;
  const LanczosResult lr = lanczos(recording, start, n, opts);
  EXPECT_EQ(lr.steps, steps);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(steps));
  double worst = 0.0;
  for (std::size_t a = 0; a < q.size(); ++a)
    for (std::size_t b = 0; b <= a; ++b)
      worst = std::max(worst,
                       std::fabs(la::dot(q[a], q[b]) - (a == b ? 1.0 : 0.0)));
  return worst;
}

TEST(Lanczos, BasisStaysOrthonormal) {
  // 180 steps on the model Hessian, as the benchmark's solvated protein
  // runs them.
  const frag::GlobalProperties& props = model_properties();
  const std::size_t n = props.hessian_mw.rows();
  ASSERT_GT(n, 180u);
  EXPECT_LE(basis_orthogonality_error(sparse_op(props.hessian_mw),
                                      props.dalpha_mw.row(0), n, 180),
            1e-12);

  // An operator whose output lies almost entirely along q_0 (a 1e6 x
  // rank-one term; it is not symmetric, which is what makes the
  // cancellation heavy). One Gram-Schmidt pass leaves ~eps * 1e6 of q_0 in
  // w; the DGKS test must see the cancellation and run the second pass.
  const std::size_t m = 50;
  Rng rng(139);
  la::Vector d(m), g(m);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);
  for (auto& v : g) v = rng.uniform(-1.0, 1.0);
  const double d_norm = la::nrm2(d);
  const MatVec skewed = [&](std::span<const double> x, std::span<double> y) {
    const double gx = la::dot(g, x);
    for (std::size_t i = 0; i < m; ++i)
      y[i] = static_cast<double>(i + 1) * x[i] + 1e6 * gx * d[i] / d_norm;
  };
  EXPECT_LE(basis_orthogonality_error(skewed, d, m, 20), 1e-12);
}

TEST(Lanczos, MatchesGramSchmidtReference) {
  // Well-separated spectrum (eigenvalues 1, 2, ..., n): alpha and beta
  // are well conditioned and must agree with the two-pass MGS loop.
  const std::size_t n = 300;
  const MatVec diag_op = [](std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < x.size(); ++i)
      y[i] = static_cast<double>(i + 1) * x[i];
  };
  Rng rng(131);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);
  LanczosOptions opts;
  opts.steps = 60;
  const LanczosResult lr = lanczos(diag_op, d, n, opts);
  const LanczosResult ref = reference_lanczos(diag_op, d, n, opts.steps);
  ASSERT_EQ(lr.alpha.size(), ref.alpha.size());
  ASSERT_EQ(lr.beta.size(), ref.beta.size());
  for (std::size_t i = 0; i < ref.alpha.size(); ++i)
    EXPECT_NEAR(lr.alpha[i], ref.alpha[i], 1e-10 * std::fabs(ref.alpha[i]))
        << "alpha " << i;
  for (std::size_t i = 0; i < ref.beta.size(); ++i)
    EXPECT_NEAR(lr.beta[i], ref.beta[i], 1e-10 * std::fabs(ref.beta[i]))
        << "beta " << i;
  EXPECT_NEAR(lr.final_beta, ref.final_beta, 1e-10 * ref.final_beta);

  // The model Hessian: the broadened GAGQ spectrum of every polarizability
  // component agrees with the reference's.
  const frag::GlobalProperties& props = model_properties();
  const MatVec op = sparse_op(props.hessian_mw);
  const std::size_t dim = props.hessian_mw.rows();
  const la::Vector axis = wavenumber_axis(0.0, 4000.0, 2000);
  opts.steps = 180;
  for (int c = 0; c < kAlphaComponents; ++c) {
    const auto start = props.dalpha_mw.row(c);
    const la::Vector got = broaden_to_wavenumbers(
        averaged_gauss_quadrature(lanczos(op, start, dim, opts)), axis, 20.0);
    const la::Vector want = broaden_to_wavenumbers(
        averaged_gauss_quadrature(reference_lanczos(op, start, dim, 180)),
        axis, 20.0);
    EXPECT_LE(rel_l2(got, want), 1e-5) << "component " << c;
  }
}

TEST(Lanczos, TruncatedGagqStaysCloseToExactMeasure) {
  // Accuracy gate at k < n: 180 steps on the n = 426 model Hessian, as the
  // benchmark's solvated protein runs them, against the exact measure of
  // the dense Hessian, both broadened at sigma = 20 cm^-1. Each bound is
  // 1.25x the polarizability row's error when the gate was added (rows
  // xx, yy, zz, xy, xz, yz). A plain three-term recurrence at equal steps
  // (no reorthogonalization) errs by 1.16e-3 on zz and 1.34e-2 on xy, past
  // their bounds.
  const frag::GlobalProperties& props = model_properties();
  const std::size_t n = props.hessian_mw.rows();
  ASSERT_EQ(n, 426u);
  const la::Matrix dense = props.hessian_mw.to_dense();
  const MatVec op = sparse_op(props.hessian_mw);
  const la::Vector axis = wavenumber_axis(0.0, 4000.0, 2000);
  LanczosOptions opts;
  opts.steps = 180;
  const double bound[kAlphaComponents] = {1.52e-3, 1.72e-3, 1.11e-3,
                                          1.28e-2, 6.70e-3, 9.81e-3};
  for (int c = 0; c < kAlphaComponents; ++c) {
    const auto start = props.dalpha_mw.row(c);
    const la::Vector got = broaden_to_wavenumbers(
        averaged_gauss_quadrature(lanczos(op, start, n, opts)), axis, 20.0);
    const la::Vector want =
        broaden_to_wavenumbers(exact_measure(dense, start), axis, 20.0);
    EXPECT_LE(rel_l2(got, want), bound[c]) << "row " << c;
  }
}

TEST(Broadening, AreaEqualsTotalWeight) {
  SpectralMeasure m;
  const double w_au = 1500.0 / units::kAuFrequencyToCm;
  m.nodes = {w_au * w_au};  // eigenvalue lambda = omega^2
  m.weights = {3.5};
  const la::Vector axis = wavenumber_axis(500.0, 2500.0, 4001);
  const la::Vector spec = broaden_to_wavenumbers(m, axis, 20.0);
  double area = 0.0;
  const double d_omega = axis[1] - axis[0];
  for (double v : spec) area += v * d_omega;
  EXPECT_NEAR(area, 3.5, 1e-3);
  // Peak at 1500 cm^-1.
  std::size_t imax = 0;
  for (std::size_t i = 0; i < spec.size(); ++i)
    if (spec[i] > spec[imax]) imax = i;
  EXPECT_NEAR(axis[imax], 1500.0, 1.0);
}

TEST(Raman, LanczosMatchesExactForFullRank) {
  Rng rng(113);
  const std::size_t n = 18;
  // Positive-definite "Hessian".
  la::Matrix h = random_symmetric(n, rng);
  la::Matrix h2(n, n);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1e-6, h, h, 0.0, h2);
  la::Matrix dalpha(kAlphaComponents, n);
  for (std::size_t c = 0; c < kAlphaComponents; ++c)
    for (std::size_t i = 0; i < n; ++i) dalpha(c, i) = rng.uniform(-1, 1);

  const la::Vector axis = wavenumber_axis(0.0, 1000.0, 301);
  const RamanSpectrum exact = raman_spectrum_exact(h2, dalpha, axis, 15.0);
  LanczosOptions opts;
  opts.steps = static_cast<int>(n);
  const MatVec op = dense_op(h2);
  const RamanSpectrum lz =
      raman_spectrum_lanczos(op, n, dalpha, axis, 15.0, opts, false);
  for (std::size_t i = 0; i < axis.size(); ++i)
    EXPECT_NEAR(lz.intensity[i], exact.intensity[i],
                1e-6 * (1.0 + exact.intensity[i]))
        << "at " << axis[i];
}

TEST(Raman, ConcurrentComponentsMatchSerialBitwise) {
  // Budget 16 is more than the seven components: it must clamp, not fail.
  const frag::GlobalProperties& props = model_properties();
  const la::Vector axis = wavenumber_axis(0.0, 4000.0, 801);
  LanczosOptions opts;
  opts.steps = 120;
  for (const bool gagq : {true, false}) {
    const RamanSpectrum serial = raman_spectrum_lanczos(
        props.hessian_mw, props.dalpha_mw, axis, 10.0, opts, gagq, 1);
    for (const std::size_t threads : {2u, 3u, 7u, 16u}) {
      const RamanSpectrum concurrent = raman_spectrum_lanczos(
          props.hessian_mw, props.dalpha_mw, axis, 10.0, opts, gagq,
          threads);
      EXPECT_TRUE(same_bits(concurrent.intensity, serial.intensity))
          << "gagq " << gagq << ", threads " << threads;
    }
  }
}

TEST(Raman, ConcurrentSolveRethrowsTheSerialError) {
  constexpr std::size_t n = 512, poison = 440;
  const la::Vector axis = wavenumber_axis(0.0, 1000.0, 51);
  LanczosOptions opts;
  opts.steps = 220;
  const MatVec op = poisoned_chain(poison);

  // xx, yy, zz start far from the poison and finish; xy, xz, yz start at
  // distances 200, 3 and 0, so the first failure in component order comes
  // last in time: at budget 3 the xz and yz solves fail while xy still
  // has ~200 steps to go (and in IR, x runs beside y and z from the
  // start).
  la::Matrix dalpha(kAlphaComponents, n);
  const std::size_t at[kAlphaComponents] = {2, 5, 8, 240, 437, 440};
  for (int c = 0; c < kAlphaComponents; ++c) dalpha(c, at[c]) = 1.0;
  la::Matrix dmu(3, n);
  for (int c = 0; c < 3; ++c) dmu(c, at[c + 3]) = 1.0;

  // The same two components, each with a non-finite entry instead.
  la::Matrix dalpha_nan = dalpha;
  dalpha_nan(4, 1) = std::numeric_limits<double>::quiet_NaN();
  dalpha_nan(5, 3) = std::numeric_limits<double>::infinity();
  la::Matrix dmu_nan = dmu;
  dmu_nan(1, 1) = std::numeric_limits<double>::quiet_NaN();
  dmu_nan(2, 3) = std::numeric_limits<double>::infinity();
  const MatVec chain = poisoned_chain(n);  // no poison

  // What the four solves throw at a given budget: Raman and IR on the
  // poisoned operator, then on the non-finite starts.
  auto failures = [&](std::size_t threads) {
    return std::vector<std::pair<std::string, std::string>>{
        thrown_by([&] {
          raman_spectrum_lanczos(op, n, dalpha, axis, 10.0, opts, true,
                                 threads);
        }),
        thrown_by([&] {
          ir_spectrum_lanczos(op, n, dmu, axis, 10.0, opts, true, threads);
        }),
        thrown_by([&] {
          raman_spectrum_lanczos(chain, n, dalpha_nan, axis, 10.0, opts, true,
                                 threads);
        }),
        thrown_by([&] {
          ir_spectrum_lanczos(chain, n, dmu_nan, axis, 10.0, opts, true,
                              threads);
        })};
  };
  const auto serial = failures(1);
  for (const auto& [type, what] : serial)
    EXPECT_EQ(type, typeid(NumericalError).name()) << what;
  EXPECT_NE(serial[0].second.find("alpha[200]"), std::string::npos)
      << serial[0].second;
  EXPECT_EQ(serial[1], serial[0]);
  EXPECT_NE(serial[2].second.find("start vector"), std::string::npos)
      << serial[2].second;
  EXPECT_EQ(serial[3], serial[2]);
  EXPECT_EQ(failures(3), serial);
}

TEST(Raman, IntensityNonNegative) {
  Rng rng(127);
  const std::size_t n = 12;
  la::Matrix h = random_symmetric(n, rng);
  la::Matrix h2(n, n);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1e-6, h, h, 0.0, h2);
  la::Matrix dalpha(kAlphaComponents, n);
  for (std::size_t c = 0; c < kAlphaComponents; ++c)
    for (std::size_t i = 0; i < n; ++i) dalpha(c, i) = rng.uniform(-1, 1);
  const la::Vector axis = wavenumber_axis(0.0, 2000.0, 101);
  const RamanSpectrum s = raman_spectrum_exact(h2, dalpha, axis, 10.0);
  for (double v : s.intensity) EXPECT_GE(v, 0.0);
}

TEST(Raman, DiatomicFrequencyPlacedCorrectly) {
  // 1D two-mass toy: H = k (x1 - x2)^2 / 2 in mass-weighted coordinates
  // gives omega = sqrt(k (1/m1 + 1/m2)).
  const double k = 0.3, m1 = 2.0 * units::kAmuToMe, m2 = 3.0 * units::kAmuToMe;
  la::Matrix h{{k / m1, -k / std::sqrt(m1 * m2)},
               {-k / std::sqrt(m1 * m2), k / m2}};
  const la::Vector freqs = vibrational_frequencies_cm(h);
  const double omega_ref =
      std::sqrt(k * (1.0 / m1 + 1.0 / m2)) * units::kAuFrequencyToCm;
  EXPECT_NEAR(freqs[0], 0.0, 1e-6);  // translation
  EXPECT_NEAR(freqs[1], omega_ref, 1e-6);
}

TEST(Raman, WavenumberAxisEndpoints) {
  const la::Vector axis = wavenumber_axis(100.0, 200.0, 11);
  EXPECT_DOUBLE_EQ(axis.front(), 100.0);
  EXPECT_DOUBLE_EQ(axis.back(), 200.0);
  EXPECT_NEAR(axis[5], 150.0, 1e-12);
  EXPECT_THROW(wavenumber_axis(5.0, 1.0, 10), InvalidArgument);
}

TEST(Raman, BadDalphaShapeThrows) {
  la::Matrix h = la::Matrix::identity(6);
  la::Matrix dalpha(3, 6);  // wrong row count
  const la::Vector axis = wavenumber_axis(0.0, 100.0, 5);
  EXPECT_THROW(raman_spectrum_exact(h, dalpha, axis, 5.0), InvalidArgument);
}

}  // namespace
}  // namespace qfr::spectra
