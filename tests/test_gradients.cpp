#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "qfr/chem/molecule.hpp"
#include "qfr/integrals/eri.hpp"
#include "qfr/integrals/gradients.hpp"
#include "qfr/scf/scf.hpp"

namespace qfr::ints {
namespace {

using basis::Shell;
using chem::Element;
using chem::Molecule;

la::Vector analytic(const Molecule& m) {
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(m));
  scf::ScfOptions opts;
  opts.energy_tolerance = 1e-12;
  opts.commutator_tolerance = 1e-9;
  const auto res = scf::ScfSolver(ctx, opts).solve();
  return rhf_gradient(*ctx, res);
}

double energy(const Molecule& m) {
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(m));
  scf::ScfOptions opts;
  opts.energy_tolerance = 1e-12;
  opts.commutator_tolerance = 1e-9;
  return scf::ScfSolver(ctx, opts).solve().energy;
}

la::Vector finite_difference(const Molecule& m, double h = 2e-4) {
  la::Vector g(3 * m.size());
  for (std::size_t c = 0; c < g.size(); ++c) {
    geom::Vec3 d;
    d[static_cast<int>(c % 3)] = h;
    const double ep = energy(m.displaced(c / 3, d));
    d[static_cast<int>(c % 3)] = -h;
    const double em = energy(m.displaced(c / 3, d));
    g[c] = (ep - em) / (2.0 * h);
  }
  return g;
}

void expect_match(const Molecule& m, double tol) {
  const la::Vector ana = analytic(m);
  const la::Vector fd = finite_difference(m);
  ASSERT_EQ(ana.size(), fd.size());
  for (std::size_t c = 0; c < ana.size(); ++c)
    EXPECT_NEAR(ana[c], fd[c], tol) << "coordinate " << c;
}

TEST(RhfGradient, H2MatchesFiniteDifference) {
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  m.add(Element::H, {0, 0, 1.4});
  expect_match(m, 1e-6);
}

TEST(RhfGradient, H2OffAxisOrientation) {
  Molecule m;
  m.add(Element::H, {0.1, -0.2, 0.05});
  m.add(Element::H, {0.9, 0.6, 1.1});
  expect_match(m, 1e-6);
}

TEST(RhfGradient, WaterMatchesFiniteDifference) {
  // Exercises s and p shells, all derivative classes, and the
  // Hellmann-Feynman term on a polyatomic.
  expect_match(chem::make_water({0, 0, 0}), 5e-6);
}

TEST(RhfGradient, RotatedWater) {
  expect_match(chem::make_water({0.5, -0.3, 0.2}, 0.9), 5e-6);
}

TEST(RhfGradient, TranslationalSumRuleExact) {
  // Sum of gradient over atoms vanishes component-wise (analytic
  // translational invariance, no FD noise involved).
  const la::Vector g = analytic(chem::make_water({0, 0, 0}, 0.3));
  for (int c = 0; c < 3; ++c) {
    double sum = 0.0;
    for (std::size_t a = 0; a < 3; ++a) sum += g[3 * a + c];
    EXPECT_NEAR(sum, 0.0, 1e-9) << "component " << c;
  }
}

TEST(RhfGradient, NearZeroAtEquilibriumBondLength) {
  // H2 near the STO-3G minimum (~1.346 bohr): tiny gradient that flips
  // sign across the minimum.
  Molecule at_min;
  at_min.add(Element::H, {0, 0, 0});
  at_min.add(Element::H, {0, 0, 1.346});
  const la::Vector g = analytic(at_min);
  EXPECT_LT(std::fabs(g[5]), 5e-3);

  Molecule stretched;
  stretched.add(Element::H, {0, 0, 0});
  stretched.add(Element::H, {0, 0, 1.8});
  const la::Vector gs = analytic(stretched);
  EXPECT_GT(gs[5], 0.02);  // pulled back toward the minimum? No: dE/dz > 0
  Molecule squeezed;
  squeezed.add(Element::H, {0, 0, 0});
  squeezed.add(Element::H, {0, 0, 1.0});
  const la::Vector gq = analytic(squeezed);
  EXPECT_LT(gq[5], -0.02);
}

TEST(RhfGradient, SplitValenceBasisMatchesFiniteDifference) {
  // The derivative machinery is basis-agnostic: validate in 6-31G too.
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  m.add(Element::H, {0, 0, 1.5});
  auto ctx = std::make_shared<scf::ScfContext>(
      scf::ScfContext::build(m, scf::BasisKind::kB631g));
  scf::ScfOptions opts;
  opts.energy_tolerance = 1e-12;
  opts.commutator_tolerance = 1e-9;
  const auto res = scf::ScfSolver(ctx, opts).solve();
  const la::Vector ana = rhf_gradient(*ctx, res);

  const double h = 2e-4;
  auto energy_at = [&](double dz) {
    Molecule d = m.displaced(1, {0, 0, dz});
    auto c = std::make_shared<scf::ScfContext>(
        scf::ScfContext::build(d, scf::BasisKind::kB631g));
    return scf::ScfSolver(c, opts).solve().energy;
  };
  const double fd = (energy_at(+h) - energy_at(-h)) / (2.0 * h);
  EXPECT_NEAR(ana[5], fd, 1e-6);
}

TEST(RhfGradient, RequiresConvergedScf) {
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(w));
  scf::ScfResult fake;
  EXPECT_THROW(rhf_gradient(*ctx, fake), InvalidArgument);
}

TEST(RhfGradient, RejectsStateFromAnotherContext) {
  // A converged H2 state carries 2x2 matrices; the water context has 7
  // basis functions, so using it there would read out of bounds.
  Molecule h2;
  h2.add(Element::H, {0, 0, 0});
  h2.add(Element::H, {0, 0, 1.4});
  auto h2_ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(h2));
  const scf::ScfResult h2_state = scf::ScfSolver(h2_ctx).solve();
  ASSERT_TRUE(h2_state.converged);
  auto water_ctx = std::make_shared<scf::ScfContext>(
      scf::ScfContext::build(chem::make_water({0, 0, 0})));
  EXPECT_THROW(rhf_gradient(*water_ctx, h2_state), InvalidArgument);
  EXPECT_THROW(rhf_two_electron_gradient(*water_ctx, h2_state.density),
               InvalidArgument);

  // The right density with too few MOs for n_occupied is rejected too.
  const scf::ScfResult water_state = scf::ScfSolver(water_ctx).solve();
  ASSERT_TRUE(water_state.converged);
  scf::ScfResult short_energies = water_state;
  short_energies.mo_energies.resize(water_state.n_occupied - 1);
  EXPECT_THROW(rhf_gradient(*water_ctx, short_energies), InvalidArgument);
  scf::ScfResult short_orbitals = water_state;
  short_orbitals.mo_coefficients =
      la::Matrix(water_ctx->bs.n_functions(), water_state.n_occupied - 1);
  EXPECT_THROW(rhf_gradient(*water_ctx, short_orbitals), InvalidArgument);
}

// The two-electron loop that rhf_two_electron_gradient replaced: every
// ordered shell quartet, screened by its own Schwarz table, contributes
// only the first center's derivative, with the effective two-particle
// density
//   Gamma_eff = 2 P_mn P_ls - 1/2 (P_ml P_ns + P_nl P_ms)
// absorbing the other three positions. Kept as the differential reference.
la::Vector reference_two_electron_gradient(const scf::ScfContext& ctx,
                                           const la::Matrix& p) {
  const auto& bs = ctx.bs;
  la::Vector grad(3 * ctx.mol.size(), 0.0);
  const std::size_t ns = bs.n_shells();
  la::Matrix schwarz(ns, ns);
  {
    std::vector<double> block;
    for (std::size_t sa = 0; sa < ns; ++sa)
      for (std::size_t sb = 0; sb <= sa; ++sb) {
        const Shell& a = bs.shell(sa);
        const Shell& b = bs.shell(sb);
        eri_shell_quartet(a, b, a, b, block);
        double mx = 0.0;
        for (double v : block) mx = std::max(mx, std::fabs(v));
        schwarz(sa, sb) = schwarz(sb, sa) = std::sqrt(mx);
      }
  }
  constexpr double kScreen = 1e-11;

  for (std::size_t sa = 0; sa < ns; ++sa) {
    const Shell& a = bs.shell(sa);
    for (std::size_t sb = 0; sb < ns; ++sb) {
      const Shell& b = bs.shell(sb);
      for (std::size_t sc = 0; sc < ns; ++sc) {
        const Shell& c = bs.shell(sc);
        for (std::size_t sd = 0; sd < ns; ++sd) {
          const Shell& d = bs.shell(sd);
          if (schwarz(sa, sb) * schwarz(sc, sd) < kScreen) continue;
          const auto deriv = eri_bra_derivative(a, b, c, d);
          std::size_t idx = 0;
          for (std::size_t fa = 0; fa < a.n_functions(); ++fa)
            for (std::size_t fb = 0; fb < b.n_functions(); ++fb)
              for (std::size_t fc = 0; fc < c.n_functions(); ++fc)
                for (std::size_t fd = 0; fd < d.n_functions(); ++fd, ++idx) {
                  const std::size_t mu = a.first_bf + fa;
                  const std::size_t nu = b.first_bf + fb;
                  const std::size_t la_ = c.first_bf + fc;
                  const std::size_t si = d.first_bf + fd;
                  const double gamma =
                      2.0 * p(mu, nu) * p(la_, si) -
                      0.5 * (p(mu, la_) * p(nu, si) +
                             p(nu, la_) * p(mu, si));
                  if (gamma == 0.0) continue;
                  for (int comp = 0; comp < 3; ++comp)
                    grad[3 * a.atom + comp] += gamma * deriv[comp][idx];
                }
        }
      }
    }
  }
  return grad;
}

void expect_two_electron_matches_reference(const Molecule& m,
                                           scf::BasisKind basis) {
  auto ctx =
      std::make_shared<scf::ScfContext>(scf::ScfContext::build(m, basis));
  scf::ScfOptions opts;
  opts.energy_tolerance = 1e-12;
  opts.commutator_tolerance = 1e-9;
  const scf::ScfResult res = scf::ScfSolver(ctx, opts).solve();
  ASSERT_TRUE(res.converged);
  const la::Vector got = rhf_two_electron_gradient(*ctx, res.density);
  const la::Vector want = reference_two_electron_gradient(*ctx, res.density);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c)
    EXPECT_NEAR(got[c], want[c], 1e-10) << "coordinate " << c;
}

TEST(RhfTwoElectronGradient, WaterMatchesOrderedQuartetReference) {
  expect_two_electron_matches_reference(chem::make_water({0.1, -0.2, 0.3}, 0.4),
                                        scf::BasisKind::kSto3g);
}

TEST(RhfTwoElectronGradient, WaterDimerMatchesOrderedQuartetReference) {
  Molecule dimer = chem::make_water({0, 0, 0});
  dimer.append(chem::make_water({0.4, 0.3, 5.6}, 1.1));
  expect_two_electron_matches_reference(dimer, scf::BasisKind::kSto3g);
}

TEST(RhfTwoElectronGradient, HydrogenSulfideMatchesOrderedQuartetReference) {
  // Third-row atom: 1s2s2p3s3p shells on S.
  Molecule h2s;
  h2s.add(Element::S, {0, 0, 0});
  h2s.add(Element::H, {1.81, 0, 1.75});
  h2s.add(Element::H, {-1.80, 0.05, 1.76});
  expect_two_electron_matches_reference(h2s, scf::BasisKind::kSto3g);
}

TEST(RhfTwoElectronGradient, SplitValenceWaterMatchesOrderedQuartetReference) {
  expect_two_electron_matches_reference(chem::make_water({0, 0, 0}, 0.2),
                                        scf::BasisKind::kB631g);
}

}  // namespace
}  // namespace qfr::ints
