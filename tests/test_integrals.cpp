#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "qfr/basis/basis.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/common/units.hpp"
#include "qfr/integrals/boys.hpp"
#include "qfr/integrals/eri.hpp"
#include "qfr/integrals/hermite.hpp"
#include "qfr/integrals/one_electron.hpp"
#include "qfr/la/blas.hpp"

namespace qfr::ints {
namespace {

using basis::BasisSet;
using basis::Shell;
using chem::Element;
using chem::Molecule;

// Reference Boys function via adaptive Simpson on [0, 1].
double boys_reference(int m, double x) {
  const int n = 4000;  // Simpson with fine fixed grid is plenty here
  auto f = [&](double t) {
    return std::pow(t, 2.0 * m) * std::exp(-x * t * t);
  };
  double sum = f(0.0) + f(1.0);
  for (int i = 1; i < n; ++i) {
    const double t = static_cast<double>(i) / n;
    sum += (i % 2 == 1 ? 4.0 : 2.0) * f(t);
  }
  return sum / (3.0 * n);
}

class BoysTest : public ::testing::TestWithParam<double> {};

TEST_P(BoysTest, MatchesQuadrature) {
  const double x = GetParam();
  double vals[7];
  boys(6, x, vals);
  for (int m = 0; m <= 6; ++m)
    EXPECT_NEAR(vals[m], boys_reference(m, x), 1e-9)
        << "m=" << m << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(Domain, BoysTest,
                         ::testing::Values(0.0, 1e-8, 0.1, 0.5, 1.0, 3.7,
                                           10.0, 25.0, 34.9, 35.1, 80.0));

TEST(Boys, DownwardRecursionConsistency) {
  // F_{m-1} = (2x F_m + e^-x) / (2m - 1) must hold for the output.
  double vals[5];
  const double x = 7.3;
  boys(4, x, vals);
  for (int m = 4; m > 0; --m)
    EXPECT_NEAR(vals[m - 1], (2.0 * x * vals[m] + std::exp(-x)) / (2 * m - 1),
                1e-13);
}

TEST(Hermite1D, SProductIsGaussianProductRule) {
  // E_0^{00} = exp(-mu Xab^2).
  const double a = 1.3, b = 0.7, ax = 0.2, bx = -0.5;
  Hermite1D e(a, b, ax, bx, 0, 0);
  const double mu = a * b / (a + b);
  EXPECT_NEAR(e(0, 0, 0), std::exp(-mu * (ax - bx) * (ax - bx)), 1e-14);
}

TEST(Hermite1D, OutOfRangeTIsZero) {
  Hermite1D e(1.0, 1.0, 0.0, 1.0, 1, 1);
  EXPECT_DOUBLE_EQ(e(1, 1, 3), 0.0);
  EXPECT_DOUBLE_EQ(e(1, 1, -1), 0.0);
}

Molecule h_atom() {
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  return m;
}

Molecule h2_szabo() {
  // H2 at R = 1.4 bohr; STO-3G hydrogen exponents are the zeta = 1.24
  // scaled set, matching Szabo & Ostlund Table 3.5 reference integrals.
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  m.add(Element::H, {0, 0, 1.4});
  return m;
}

TEST(OneElectron, NormalizedDiagonalOverlap) {
  const Molecule w = chem::make_water({0, 0, 0});
  const BasisSet bs = BasisSet::sto3g(w);
  const la::Matrix s = overlap(bs);
  for (std::size_t i = 0; i < bs.n_functions(); ++i)
    EXPECT_NEAR(s(i, i), 1.0, 1e-10) << "bf " << i;
}

TEST(OneElectron, OverlapSymmetric) {
  const Molecule m = h2_szabo();
  const BasisSet bs = BasisSet::sto3g(m);
  const la::Matrix s = overlap(bs);
  EXPECT_LT(la::max_abs_diff(s, s.transposed()), 1e-13);
}

TEST(OneElectron, SzaboH2Overlap) {
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const la::Matrix s = overlap(bs);
  EXPECT_NEAR(s(0, 1), 0.6593, 2e-4);
}

TEST(OneElectron, SzaboH2Kinetic) {
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const la::Matrix t = kinetic(bs);
  EXPECT_NEAR(t(0, 0), 0.7600, 2e-4);
  EXPECT_NEAR(t(0, 1), 0.2365, 2e-4);
}

TEST(OneElectron, SzaboH2NuclearAttraction) {
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const la::Matrix v = nuclear_attraction(bs, h2_szabo());
  // V_11 = -1.2266 (attraction to nucleus 1) + -0.6538 (to nucleus 2).
  EXPECT_NEAR(v(0, 0), -1.2266 - 0.6538, 5e-4);
}

TEST(OneElectron, HydrogenAtomSto3gEnergy) {
  // One electron in one s function: E = T_00 + V_00; the STO-3G hydrogen
  // atom energy is -0.4665819 hartree (well-known reference value).
  const Molecule m = h_atom();
  const BasisSet bs = BasisSet::sto3g(m);
  const double e = kinetic(bs)(0, 0) + nuclear_attraction(bs, m)(0, 0);
  EXPECT_NEAR(e, -0.46658, 1e-4);
}

TEST(OneElectron, KineticPositiveDiagonal) {
  const Molecule w = chem::make_water({0, 0, 0});
  const BasisSet bs = BasisSet::sto3g(w);
  const la::Matrix t = kinetic(bs);
  for (std::size_t i = 0; i < bs.n_functions(); ++i) EXPECT_GT(t(i, i), 0.0);
}

TEST(OneElectron, DipoleOfSymmetricH2VanishesAtCenter) {
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const auto d = dipole(bs, {0, 0, 0.7});
  // z-dipole matrix: d(0,0) = -0.7 shift, d(1,1) = +0.7; trace of P*D with
  // symmetric density must vanish. Check the raw symmetry instead:
  EXPECT_NEAR(d[2](0, 0), -d[2](1, 1), 1e-10);
  EXPECT_NEAR(d[0](0, 0), 0.0, 1e-12);
  EXPECT_NEAR(d[1](0, 1), 0.0, 1e-12);
}

TEST(OneElectron, DipoleDiagonalEqualsCenterOffset) {
  // For a normalized s function at A, <mu|z - o_z|mu> = A_z - o_z.
  Molecule m;
  m.add(Element::H, {0.3, -0.4, 1.7});
  const BasisSet bs = BasisSet::sto3g(m);
  const auto d = dipole(bs, {0, 0, 0});
  EXPECT_NEAR(d[0](0, 0), 0.3, 1e-10);
  EXPECT_NEAR(d[1](0, 0), -0.4, 1e-10);
  EXPECT_NEAR(d[2](0, 0), 1.7, 1e-10);
}

TEST(Eri, SzaboH2Values) {
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const EriTensor eri(bs);
  EXPECT_NEAR(eri(0, 0, 0, 0), 0.7746, 2e-4);
  EXPECT_NEAR(eri(0, 0, 1, 1), 0.5697, 2e-4);
  EXPECT_NEAR(eri(1, 0, 0, 0), 0.4441, 2e-4);
  EXPECT_NEAR(eri(1, 0, 1, 0), 0.2970, 2e-4);
}

TEST(Eri, EightFoldSymmetry) {
  const Molecule w = chem::make_water({0, 0, 0});
  const BasisSet bs = BasisSet::sto3g(w);
  const EriTensor eri(bs);
  // Spot-check permutations on a p-function-involving quartet.
  const std::size_t i = 2, j = 4, k = 1, l = 6;
  const double ref = eri(i, j, k, l);
  EXPECT_DOUBLE_EQ(eri(j, i, k, l), ref);
  EXPECT_DOUBLE_EQ(eri(i, j, l, k), ref);
  EXPECT_DOUBLE_EQ(eri(k, l, i, j), ref);
  EXPECT_DOUBLE_EQ(eri(l, k, j, i), ref);
}

TEST(Eri, CoulombExchangeSymmetric) {
  const Molecule w = chem::make_water({0, 0, 0});
  const BasisSet bs = BasisSet::sto3g(w);
  const EriTensor eri(bs);
  la::Matrix p(bs.n_functions(), bs.n_functions());
  // Arbitrary symmetric density.
  for (std::size_t a = 0; a < p.rows(); ++a)
    for (std::size_t b = 0; b <= a; ++b)
      p(a, b) = p(b, a) = 0.1 * static_cast<double>(a + b) /
                          static_cast<double>(p.rows());
  const la::Matrix j = eri.coulomb(p);
  const la::Matrix k = eri.exchange(p);
  EXPECT_LT(la::max_abs_diff(j, j.transposed()), 1e-12);
  EXPECT_LT(la::max_abs_diff(k, k.transposed()), 1e-12);
}

TEST(Eri, CoulombDominatesExchange) {
  // For a positive-semidefinite density, J's diagonal bounds K's.
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const EriTensor eri(bs);
  la::Matrix p(2, 2);
  p(0, 0) = p(1, 1) = 1.0;
  p(0, 1) = p(1, 0) = 0.9;
  const la::Matrix j = eri.coulomb(p);
  const la::Matrix k = eri.exchange(p);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_GE(j(i, i), k(i, i) - 1e-12);
}

// The single-pass quartet kernel that eri_shell_quartet replaced: ket
// Hermite tables rebuilt per bra primitive pair and the ket-against-R sum
// redone per bra function pair. Kept as the differential reference.
void reference_shell_quartet(const Shell& a, const Shell& b, const Shell& c,
                             const Shell& d, std::vector<double>& out) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const auto pw_b = basis::cartesian_powers(b.l);
  const auto pw_c = basis::cartesian_powers(c.l);
  const auto pw_d = basis::cartesian_powers(d.l);
  const std::size_t na = pw_a.size(), nb = pw_b.size(), nc = pw_c.size(),
                    nd = pw_d.size();
  out.assign(na * nb * nc * nd, 0.0);
  const int tmax_ab = a.l + b.l;
  const int tmax_cd = c.l + d.l;

  for (const auto& p1 : a.prims)
    for (const auto& p2 : b.prims) {
      const Hermite1D e1x(p1.exponent, p2.exponent, a.center.x, b.center.x,
                          a.l, b.l);
      const Hermite1D e1y(p1.exponent, p2.exponent, a.center.y, b.center.y,
                          a.l, b.l);
      const Hermite1D e1z(p1.exponent, p2.exponent, a.center.z, b.center.z,
                          a.l, b.l);
      const double p = e1x.p();
      const geom::Vec3 pc{e1x.center(), e1y.center(), e1z.center()};
      const double c12 = p1.coefficient * p2.coefficient;

      for (const auto& p3 : c.prims)
        for (const auto& p4 : d.prims) {
          const Hermite1D e2x(p3.exponent, p4.exponent, c.center.x,
                              d.center.x, c.l, d.l);
          const Hermite1D e2y(p3.exponent, p4.exponent, c.center.y,
                              d.center.y, c.l, d.l);
          const Hermite1D e2z(p3.exponent, p4.exponent, c.center.z,
                              d.center.z, c.l, d.l);
          const double q = e2x.p();
          const geom::Vec3 qc{e2x.center(), e2y.center(), e2z.center()};
          const double alpha = p * q / (p + q);
          const double pref = c12 * p3.coefficient * p4.coefficient * 2.0 *
                              std::pow(units::kPi, 2.5) /
                              (p * q * std::sqrt(p + q));
          const HermiteR r(alpha, pc - qc, tmax_ab + tmax_cd);

          std::size_t idx = 0;
          for (std::size_t fa = 0; fa < na; ++fa)
            for (std::size_t fb = 0; fb < nb; ++fb)
              for (std::size_t fc = 0; fc < nc; ++fc)
                for (std::size_t fd = 0; fd < nd; ++fd, ++idx) {
                  const auto& qa = pw_a[fa];
                  const auto& qb = pw_b[fb];
                  const auto& qcc = pw_c[fc];
                  const auto& qd = pw_d[fd];
                  double acc = 0.0;
                  for (int t = 0; t <= qa.i + qb.i; ++t) {
                    const double ex1 = e1x(qa.i, qb.i, t);
                    if (ex1 == 0.0) continue;
                    for (int u = 0; u <= qa.j + qb.j; ++u) {
                      const double ey1 = e1y(qa.j, qb.j, u);
                      if (ey1 == 0.0) continue;
                      for (int v = 0; v <= qa.k + qb.k; ++v) {
                        const double ez1 = e1z(qa.k, qb.k, v);
                        if (ez1 == 0.0) continue;
                        double inner = 0.0;
                        for (int tt = 0; tt <= qcc.i + qd.i; ++tt) {
                          const double ex2 = e2x(qcc.i, qd.i, tt);
                          if (ex2 == 0.0) continue;
                          for (int uu = 0; uu <= qcc.j + qd.j; ++uu) {
                            const double ey2 = e2y(qcc.j, qd.j, uu);
                            if (ey2 == 0.0) continue;
                            for (int vv = 0; vv <= qcc.k + qd.k; ++vv) {
                              const double ez2 = e2z(qcc.k, qd.k, vv);
                              if (ez2 == 0.0) continue;
                              const double sign =
                                  ((tt + uu + vv) % 2 == 0) ? 1.0 : -1.0;
                              inner += sign * ex2 * ey2 * ez2 *
                                       r(t + tt, u + uu, v + vv);
                            }
                          }
                        }
                        acc += ex1 * ey1 * ez1 * inner;
                      }
                    }
                  }
                  out[idx] += pref * acc;
                }
        }
    }
}

// A shell of angular momentum l with 1-3 primitives at a random center.
Shell random_shell(std::mt19937_64& rng, int l) {
  std::uniform_real_distribution<double> pos(-1.5, 1.5);
  std::uniform_real_distribution<double> expo(0.15, 6.0);
  std::uniform_real_distribution<double> coef(0.1, 1.0);
  std::uniform_int_distribution<int> nprim(1, 3);
  Shell s;
  s.l = l;
  s.center = {pos(rng), pos(rng), pos(rng)};
  for (int k = nprim(rng); k > 0; --k)
    s.prims.push_back({expo(rng), coef(rng)});
  return s;
}

TEST(Eri, QuartetKernelMatchesSinglePassReference) {
  // Every shell class with l in {0, 1, 2} in each of the four positions,
  // three seeded random draws each; elements are compared relative to the
  // block's largest magnitude.
  std::mt19937_64 rng(20240613);
  std::vector<double> got, want;
  for (int la = 0; la <= 2; ++la)
    for (int lb = 0; lb <= 2; ++lb)
      for (int lc = 0; lc <= 2; ++lc)
        for (int ld = 0; ld <= 2; ++ld)
          for (int draw = 0; draw < 3; ++draw) {
            const Shell a = random_shell(rng, la), b = random_shell(rng, lb),
                        c = random_shell(rng, lc), d = random_shell(rng, ld);
            eri_shell_quartet(a, b, c, d, got);
            reference_shell_quartet(a, b, c, d, want);
            ASSERT_EQ(got.size(), want.size());
            double scale = 0.0;
            for (double v : want) scale = std::max(scale, std::fabs(v));
            ASSERT_GT(scale, 0.0);
            for (std::size_t i = 0; i < want.size(); ++i)
              ASSERT_LE(std::fabs(got[i] - want[i]), 1e-13 * scale)
                  << "class (" << la << lb << "|" << lc << ld << ") draw "
                  << draw << " element " << i;
          }
}

TEST(Eri, SchwarzTableBoundsEveryQuartet) {
  const BasisSet bs = BasisSet::sto3g(chem::make_water({0, 0, 0}));
  const EriTensor eri(bs);
  const la::Matrix& q = eri.schwarz();
  ASSERT_EQ(q.rows(), bs.n_shells());
  ASSERT_EQ(q.cols(), bs.n_shells());
  const std::size_t n = bs.n_functions();
  auto shell_of = [&](std::size_t f) {
    for (std::size_t s = 0; s < bs.n_shells(); ++s)
      if (f < bs.shell(s).first_bf + bs.shell(s).n_functions()) return s;
    return bs.n_shells();
  };
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = 0; l < n; ++l)
          EXPECT_LE(std::fabs(eri(i, j, k, l)),
                    q(shell_of(i), shell_of(j)) * q(shell_of(k), shell_of(l)) *
                        (1.0 + 1e-12));
}

TEST(Basis, Sto3gCounts) {
  const Molecule w = chem::make_water({0, 0, 0});
  const BasisSet bs = BasisSet::sto3g(w);
  // O: 1s + 2s + 2p = 5 functions; each H: 1. Total 7.
  EXPECT_EQ(bs.n_functions(), 7u);
  EXPECT_EQ(bs.n_shells(), 5u);
  EXPECT_EQ(bs.function_atom(0), 0u);
  EXPECT_EQ(bs.function_atom(5), 1u);
  EXPECT_EQ(bs.function_atom(6), 2u);
}

TEST(Basis, CartesianPowers) {
  const auto s = basis::cartesian_powers(0);
  ASSERT_EQ(s.size(), 1u);
  const auto p = basis::cartesian_powers(1);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].i, 1);
  EXPECT_EQ(p[1].j, 1);
  EXPECT_EQ(p[2].k, 1);
}

}  // namespace
}  // namespace qfr::ints
