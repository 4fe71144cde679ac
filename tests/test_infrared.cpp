#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "qfr/chem/molecule.hpp"
#include "qfr/chem/protein.hpp"
#include "qfr/chem/topology.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/common/units.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/engine/scf_engine.hpp"
#include "qfr/frag/assembly.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/qframan/workflow.hpp"
#include "qfr/scf/scf.hpp"
#include "qfr/spectra/infrared.hpp"

namespace qfr {
namespace {

using chem::Element;
using chem::Molecule;

TEST(Dipole, ScfWaterDipoleMatchesLiterature) {
  // RHF/STO-3G water dipole is ~0.68 a.u. (1.73 D), along the C2 axis.
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(w));
  const auto res = scf::ScfSolver(ctx).solve();
  const geom::Vec3 mu = scf::dipole_moment(*ctx, res.density);
  EXPECT_NEAR(mu.norm(), 0.68, 0.05);
  // Symmetry: x and y components vanish for our water orientation
  // (H atoms symmetric about the z axis).
  EXPECT_NEAR(mu.x, 0.0, 1e-6);
  EXPECT_NEAR(mu.y, 0.0, 1e-6);
}

TEST(Dipole, TranslationInvariant) {
  const Molecule a = chem::make_water({0, 0, 0});
  const Molecule b = chem::make_water({3.0, -2.0, 5.0});
  auto ca = std::make_shared<scf::ScfContext>(scf::ScfContext::build(a));
  auto cb = std::make_shared<scf::ScfContext>(scf::ScfContext::build(b));
  const auto ra = scf::ScfSolver(ca).solve();
  const auto rb = scf::ScfSolver(cb).solve();
  const geom::Vec3 mua = scf::dipole_moment(*ca, ra.density);
  const geom::Vec3 mub = scf::dipole_moment(*cb, rb.density);
  // Neutral molecule: dipole independent of position.
  EXPECT_NEAR((mua - mub).norm(), 0.0, 1e-6);
}

TEST(Dipole, ModelWaterDipoleAlongSymmetryAxis) {
  const Molecule w = chem::make_water({0, 0, 0});
  const auto bonds = chem::perceive_bonds(w);
  engine::ModelEngine eng;
  const geom::Vec3 mu = eng.dipole(w, bonds);
  EXPECT_NEAR(mu.x, 0.0, 1e-10);
  EXPECT_NEAR(mu.y, 0.0, 1e-10);
  EXPECT_GT(std::fabs(mu.z), 0.3);  // two O-H bond dipoles add along z
}

TEST(Dipole, ModelMethaneDipoleVanishes) {
  Molecule m;
  const double r = 1.09 * units::kAngstromToBohr;
  m.add(Element::C, {0, 0, 0});
  const double s = r / std::sqrt(3.0);
  m.add(Element::H, {s, s, s});
  m.add(Element::H, {s, -s, -s});
  m.add(Element::H, {-s, s, -s});
  m.add(Element::H, {-s, -s, s});
  engine::ModelEngine eng;
  EXPECT_NEAR(eng.dipole(m, chem::perceive_bonds(m)).norm(), 0.0, 1e-10);
}

TEST(Dmu, ModelEngineTranslationInvariant) {
  // Rigid translation leaves mu unchanged: dmu rows sum to zero per
  // Cartesian component over atoms.
  const Molecule w = chem::make_water({0, 0, 0});
  engine::ModelEngine eng;
  const auto res = eng.compute(w);
  ASSERT_EQ(res.dmu.rows(), 3u);
  for (int k = 0; k < 3; ++k)
    for (int c = 0; c < 3; ++c) {
      double sum = 0.0;
      for (std::size_t a = 0; a < w.size(); ++a)
        sum += res.dmu(k, 3 * a + c);
      EXPECT_NEAR(sum, 0.0, 1e-8);
    }
}

TEST(Dmu, ScfEngineHasStretchActivity) {
  // H2O's O-H stretches are IR active: dmu is substantially nonzero.
  Molecule h2o = chem::make_water({0, 0, 0});
  engine::ScfEngine eng;
  const auto res = eng.compute(h2o);
  double norm = 0.0;
  for (std::size_t c = 0; c < res.dmu.cols(); ++c)
    for (int k = 0; k < 3; ++k) norm += res.dmu(k, c) * res.dmu(k, c);
  EXPECT_GT(norm, 0.1);
}

TEST(IrSpectrum, LanczosMatchesExact) {
  Rng rng(211);
  const std::size_t n = 15;
  la::Matrix h(n, n), h2(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) h(i, j) = h(j, i) = rng.uniform(-1, 1);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1e-6, h, h, 0.0, h2);
  la::Matrix dmu(3, n);
  for (int k = 0; k < 3; ++k)
    for (std::size_t i = 0; i < n; ++i) dmu(k, i) = rng.uniform(-1, 1);
  const la::Vector axis = spectra::wavenumber_axis(0, 1500, 301);
  const auto exact = spectra::ir_spectrum_exact(h2, dmu, axis, 20.0);
  spectra::LanczosOptions opts;
  opts.steps = static_cast<int>(n);
  const spectra::MatVec op = [&](std::span<const double> x,
                                 std::span<double> y) {
    la::gemv(la::Trans::kNo, 1.0, h2, x, 0.0, y);
  };
  const auto lz =
      spectra::ir_spectrum_lanczos(op, n, dmu, axis, 20.0, opts, false);
  for (std::size_t i = 0; i < axis.size(); ++i)
    EXPECT_NEAR(lz.intensity[i], exact.intensity[i],
                1e-6 * (1.0 + exact.intensity[i]));
}

TEST(IrSpectrum, ConcurrentComponentsMatchSerialBitwise) {
  // Assembled model-engine Hessian and dipole derivatives of an 8-residue
  // protein; budget 16 is more than the three components and must clamp.
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
  const frag::GlobalProperties props =
      frag::assemble_global_properties(sys, fr.fragments, results);

  const la::Vector axis = spectra::wavenumber_axis(0, 4000, 801);
  spectra::LanczosOptions opts;
  opts.steps = 120;
  for (const bool gagq : {true, false}) {
    const auto serial = spectra::ir_spectrum_lanczos(
        props.hessian_mw, props.dmu_mw, axis, 10.0, opts, gagq, 1);
    for (const std::size_t threads : {2u, 3u, 16u}) {
      const auto concurrent = spectra::ir_spectrum_lanczos(
          props.hessian_mw, props.dmu_mw, axis, 10.0, opts, gagq, threads);
      ASSERT_EQ(concurrent.intensity.size(), serial.intensity.size());
      EXPECT_EQ(std::memcmp(concurrent.intensity.data(),
                            serial.intensity.data(),
                            serial.intensity.size() * sizeof(double)),
                0)
          << "gagq " << gagq << ", threads " << threads;
    }
  }
}

TEST(IrSpectrum, WorkflowProducesWaterBands) {
  frag::BioSystem sys;
  Rng rng(5);
  for (int i = 0; i < 6; ++i)
    sys.waters.push_back(chem::make_water(
        {8.0 * i, 0.0, 0.0}, rng.uniform(0, 6.28)));
  qframan::WorkflowOptions opts;
  opts.compute_ir = true;
  opts.sigma_cm = 25.0;
  const auto res = qframan::RamanWorkflow(opts).run(sys);
  ASSERT_EQ(res.ir_spectrum.intensity.size(), res.spectrum.intensity.size());
  // IR: the water bend (~1600) is strong; check both bands carry weight.
  auto band = [&](double lo, double hi) {
    double acc = 0.0;
    for (std::size_t i = 0; i < res.ir_spectrum.omega_cm.size(); ++i)
      if (res.ir_spectrum.omega_cm[i] >= lo &&
          res.ir_spectrum.omega_cm[i] <= hi)
        acc += res.ir_spectrum.intensity[i];
    return acc;
  };
  EXPECT_GT(band(1400, 1800), 0.0);
  EXPECT_GT(band(3200, 3800), 0.0);
}

TEST(IrSpectrum, GlobalAlphaAssembled) {
  frag::BioSystem sys;
  sys.waters.push_back(chem::make_water({0, 0, 0}));
  sys.waters.push_back(chem::make_water({30.0, 0, 0}));
  qframan::WorkflowOptions opts;
  const auto res = qframan::RamanWorkflow(opts).run(sys);
  // Two isolated waters: global alpha = sum of the two monomer tensors.
  engine::ModelEngine eng;
  const auto one = eng.compute(chem::make_water({0, 0, 0}));
  const auto two = eng.compute(chem::make_water({30.0, 0, 0}));
  la::Matrix expected = one.alpha;
  expected += two.alpha;
  EXPECT_LT(la::max_abs_diff(res.properties.alpha, expected), 1e-10);
}

TEST(IrSpectrum, BadDmuShapeThrows) {
  la::Matrix h = la::Matrix::identity(6);
  la::Matrix dmu(2, 6);
  const la::Vector axis = spectra::wavenumber_axis(0, 100, 5);
  EXPECT_THROW(spectra::ir_spectrum_exact(h, dmu, axis, 5.0),
               InvalidArgument);
}

}  // namespace
}  // namespace qfr
