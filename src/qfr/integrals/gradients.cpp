#include "qfr/integrals/gradients.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"
#include "qfr/integrals/eri.hpp"
#include "qfr/integrals/hermite.hpp"
#include "qfr/la/blas.hpp"

namespace qfr::ints {

namespace {

using basis::CartPowers;
using basis::Shell;
using la::Matrix;

// d/dA of a contracted Gaussian: raised shell carries 2*a_k-scaled
// coefficients, lowered shell the original ones (angular prefactor -i is
// applied at extraction time). No renormalization: the derivative of a
// normalized function is exactly this combination.
Shell raised_shell(const Shell& s) {
  Shell r = s;
  r.l = s.l + 1;
  for (auto& p : r.prims) p.coefficient *= 2.0 * p.exponent;
  return r;
}

Shell lowered_shell(const Shell& s) {
  QFR_ASSERT(s.l > 0, "cannot lower an s shell");
  Shell r = s;
  r.l = s.l - 1;
  return r;
}

// Index of Cartesian powers (i, j, k), i + j + k = l, within
// cartesian_powers(l): i runs from l down, then j from l - i down.
std::size_t cart_index(int l, int i, int j) {
  const int m = l - i;
  return static_cast<std::size_t>(m * (m + 1) / 2 + (m - j));
}

double s1d(const Hermite1D& e, int i, int j) {
  return e(i, j, 0) * std::sqrt(units::kPi / e.p());
}

// Generic one-electron block <a|Ô|b> for Ô in {overlap, kinetic, nuclear}.
enum class OneEOp { kOverlap, kKinetic, kNuclear };

Matrix one_electron_block(const Shell& a, const Shell& b, OneEOp op,
                          const chem::Molecule* mol) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const auto pw_b = basis::cartesian_powers(b.l);
  Matrix block(pw_a.size(), pw_b.size());
  const int jpad = (op == OneEOp::kKinetic) ? 2 : 0;

  for (const auto& pa : a.prims)
    for (const auto& pb : b.prims) {
      const double cc = pa.coefficient * pb.coefficient;
      const Hermite1D ex(pa.exponent, pb.exponent, a.center.x, b.center.x,
                         a.l, b.l + jpad);
      const Hermite1D ey(pa.exponent, pb.exponent, a.center.y, b.center.y,
                         a.l, b.l + jpad);
      const Hermite1D ez(pa.exponent, pb.exponent, a.center.z, b.center.z,
                         a.l, b.l + jpad);
      const double beta = pb.exponent;
      auto t1d = [&](const Hermite1D& e, int i, int j) {
        double v = -2.0 * beta * beta * s1d(e, i, j + 2) +
                   beta * (2.0 * j + 1.0) * s1d(e, i, j);
        if (j >= 2) v -= 0.5 * j * (j - 1.0) * s1d(e, i, j - 2);
        return v;
      };

      if (op == OneEOp::kNuclear) {
        const double p = ex.p();
        const geom::Vec3 pctr{ex.center(), ey.center(), ez.center()};
        const double pref = 2.0 * units::kPi / p;
        for (std::size_t n = 0; n < mol->size(); ++n) {
          const auto& atom = mol->atom(n);
          const HermiteR r(p, pctr - atom.position, a.l + b.l);
          const double z = chem::atomic_number(atom.element);
          for (std::size_t fa = 0; fa < pw_a.size(); ++fa)
            for (std::size_t fb = 0; fb < pw_b.size(); ++fb) {
              const auto& qa = pw_a[fa];
              const auto& qb = pw_b[fb];
              double acc = 0.0;
              for (int t = 0; t <= qa.i + qb.i; ++t)
                for (int u = 0; u <= qa.j + qb.j; ++u)
                  for (int w = 0; w <= qa.k + qb.k; ++w)
                    acc += ex(qa.i, qb.i, t) * ey(qa.j, qb.j, u) *
                           ez(qa.k, qb.k, w) * r(t, u, w);
              block(fa, fb) -= cc * pref * z * acc;
            }
        }
        continue;
      }

      for (std::size_t fa = 0; fa < pw_a.size(); ++fa)
        for (std::size_t fb = 0; fb < pw_b.size(); ++fb) {
          const auto& qa = pw_a[fa];
          const auto& qb = pw_b[fb];
          if (op == OneEOp::kOverlap) {
            block(fa, fb) += cc * s1d(ex, qa.i, qb.i) * s1d(ey, qa.j, qb.j) *
                             s1d(ez, qa.k, qb.k);
          } else {
            const double sx = s1d(ex, qa.i, qb.i);
            const double sy = s1d(ey, qa.j, qb.j);
            const double sz = s1d(ez, qa.k, qb.k);
            block(fa, fb) += cc * (t1d(ex, qa.i, qb.i) * sy * sz +
                                   sx * t1d(ey, qa.j, qb.j) * sz +
                                   sx * sy * t1d(ez, qa.k, qb.k));
          }
        }
    }
  return block;
}

// Bra-derivative blocks d<a|Ô|b>/dA_c for c = x, y, z, assembled from the
// raised/lowered-shell blocks.
std::array<Matrix, 3> bra_derivative_block(const Shell& a, const Shell& b,
                                           OneEOp op,
                                           const chem::Molecule* mol) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const Shell up = raised_shell(a);
  const Matrix up_block = one_electron_block(up, b, op, mol);
  Matrix down_block;
  if (a.l > 0)
    down_block = one_electron_block(lowered_shell(a), b, op, mol);

  std::array<Matrix, 3> d;
  for (auto& m : d) m.resize_zero(pw_a.size(), b.n_functions());
  for (std::size_t fa = 0; fa < pw_a.size(); ++fa) {
    const auto& q = pw_a[fa];
    const int pw[3] = {q.i, q.j, q.k};
    for (int c = 0; c < 3; ++c) {
      int up_pw[3] = {q.i, q.j, q.k};
      up_pw[c] += 1;
      const std::size_t fu = cart_index(up.l, up_pw[0], up_pw[1]);
      for (std::size_t fb = 0; fb < b.n_functions(); ++fb) {
        double v = up_block(fu, fb);
        if (pw[c] > 0) {
          int dn_pw[3] = {q.i, q.j, q.k};
          dn_pw[c] -= 1;
          const std::size_t fd = cart_index(a.l - 1, dn_pw[0], dn_pw[1]);
          v -= pw[c] * down_block(fd, fb);
        }
        d[c](fa, fb) = v;
      }
    }
  }
  return d;
}

// Hellmann-Feynman contributions: the nuclear-attraction operator's own
// center derivative, accumulated directly into the gradient:
// d<mu|-Z/|r-C||nu>/dC_c = -(2 pi / p) Z sum E_tuv * (-R_{tuv + e_c}).
void accumulate_hellmann_feynman(const Shell& a, const Shell& b,
                                 const chem::Molecule& mol,
                                 const Matrix& density,
                                 std::span<double> grad) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const auto pw_b = basis::cartesian_powers(b.l);
  for (const auto& pa : a.prims)
    for (const auto& pb : b.prims) {
      const double cc = pa.coefficient * pb.coefficient;
      const Hermite1D ex(pa.exponent, pb.exponent, a.center.x, b.center.x,
                         a.l, b.l);
      const Hermite1D ey(pa.exponent, pb.exponent, a.center.y, b.center.y,
                         a.l, b.l);
      const Hermite1D ez(pa.exponent, pb.exponent, a.center.z, b.center.z,
                         a.l, b.l);
      const double p = ex.p();
      const geom::Vec3 pctr{ex.center(), ey.center(), ez.center()};
      const double pref = 2.0 * units::kPi / p;
      for (std::size_t n = 0; n < mol.size(); ++n) {
        const auto& atom = mol.atom(n);
        const HermiteR r(p, pctr - atom.position, a.l + b.l + 1);
        const double z = chem::atomic_number(atom.element);
        for (std::size_t fa = 0; fa < pw_a.size(); ++fa)
          for (std::size_t fb = 0; fb < pw_b.size(); ++fb) {
            const double w =
                density(a.first_bf + fa, b.first_bf + fb) * cc * pref * z;
            if (w == 0.0) continue;
            const auto& qa = pw_a[fa];
            const auto& qb = pw_b[fb];
            double acc[3] = {0.0, 0.0, 0.0};
            for (int t = 0; t <= qa.i + qb.i; ++t)
              for (int u = 0; u <= qa.j + qb.j; ++u)
                for (int v = 0; v <= qa.k + qb.k; ++v) {
                  const double e3 = ex(qa.i, qb.i, t) * ey(qa.j, qb.j, u) *
                                    ez(qa.k, qb.k, v);
                  if (e3 == 0.0) continue;
                  acc[0] += e3 * r(t + 1, u, v);
                  acc[1] += e3 * r(t, u + 1, v);
                  acc[2] += e3 * r(t, u, v + 1);
                }
            // dV/dC_c = +(2 pi/p) Z sum E R_{+e_c} (operator term).
            for (int c = 0; c < 3; ++c) grad[3 * n + c] += w * acc[c];
          }
      }
    }
}

}  // namespace

std::array<std::vector<double>, 3> eri_bra_derivative(const Shell& a,
                                                      const Shell& b,
                                                      const Shell& c,
                                                      const Shell& d) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const std::size_t nb = b.n_functions(), nc = c.n_functions(),
                    nd = d.n_functions();
  const Shell up = raised_shell(a);
  std::vector<double> up_block, down_block;
  eri_shell_quartet(up, b, c, d, up_block);
  if (a.l > 0) eri_shell_quartet(lowered_shell(a), b, c, d, down_block);

  std::array<std::vector<double>, 3> out;
  const std::size_t tail = nb * nc * nd;
  for (auto& v : out) v.assign(pw_a.size() * tail, 0.0);
  for (std::size_t fa = 0; fa < pw_a.size(); ++fa) {
    const auto& q = pw_a[fa];
    const int pw[3] = {q.i, q.j, q.k};
    for (int comp = 0; comp < 3; ++comp) {
      int up_pw[3] = {q.i, q.j, q.k};
      up_pw[comp] += 1;
      const std::size_t fu = cart_index(up.l, up_pw[0], up_pw[1]);
      double* dst = out[comp].data() + fa * tail;
      const double* src_up = up_block.data() + fu * tail;
      for (std::size_t t = 0; t < tail; ++t) dst[t] = src_up[t];
      if (pw[comp] > 0) {
        int dn_pw[3] = {q.i, q.j, q.k};
        dn_pw[comp] -= 1;
        const std::size_t fd = cart_index(a.l - 1, dn_pw[0], dn_pw[1]);
        const double* src_dn = down_block.data() + fd * tail;
        for (std::size_t t = 0; t < tail; ++t)
          dst[t] -= pw[comp] * src_dn[t];
      }
    }
  }
  return out;
}

la::Vector rhf_gradient(const scf::ScfContext& ctx,
                        const scf::ScfResult& scf_state) {
  QFR_REQUIRE(scf_state.converged, "gradient requires a converged SCF state");
  const auto& bs = ctx.bs;
  const auto& mol = ctx.mol;
  const std::size_t n = bs.n_functions();
  // la::Matrix indexing is unchecked: a state from another molecule must
  // be rejected here, not read out of bounds below.
  QFR_REQUIRE(scf_state.density.rows() == n && scf_state.density.cols() == n,
              "SCF density shape does not match the context's basis");
  QFR_REQUIRE(scf_state.mo_coefficients.rows() == n,
              "MO coefficient rows do not match the context's basis");
  QFR_REQUIRE(scf_state.n_occupied >= 0 &&
                  scf_state.mo_energies.size() >=
                      static_cast<std::size_t>(scf_state.n_occupied) &&
                  scf_state.mo_coefficients.cols() >=
                      static_cast<std::size_t>(scf_state.n_occupied),
              "SCF state has fewer MOs than occupied orbitals");
  const std::size_t dim = 3 * mol.size();
  la::Vector grad(dim, 0.0);

  const Matrix& p = scf_state.density;
  // Energy-weighted density W = 2 sum_i^occ eps_i C_i C_i^T.
  Matrix w(n, n);
  for (std::size_t mu = 0; mu < n; ++mu)
    for (std::size_t nu = 0; nu < n; ++nu) {
      double acc = 0.0;
      for (int i = 0; i < scf_state.n_occupied; ++i)
        acc += scf_state.mo_energies[i] * scf_state.mo_coefficients(mu, i) *
               scf_state.mo_coefficients(nu, i);
      w(mu, nu) = 2.0 * acc;
    }

  // Nuclear repulsion gradient.
  for (std::size_t i = 0; i < mol.size(); ++i)
    for (std::size_t j = 0; j < mol.size(); ++j) {
      if (i == j) continue;
      const geom::Vec3 d = mol.atom(i).position - mol.atom(j).position;
      const double r = d.norm();
      const double zz = chem::atomic_number(mol.atom(i).element) *
                        chem::atomic_number(mol.atom(j).element);
      for (int c = 0; c < 3; ++c)
        grad[3 * i + c] -= zz * d[c] / (r * r * r);
    }

  // One-electron terms. For a symmetric contraction matrix X,
  //   sum_{mu nu} X_mn d<mu|O|nu>/dA = 2 sum_{ordered pairs} X_mn d_bra
  // (the ket term of (mu, nu) relabels onto the bra term of (nu, mu)), so
  // the basis-derivative pieces carry a factor 2; the Hellmann-Feynman
  // operator term visits every (mu, nu) exactly once and does not.
  for (const auto& a : bs.shells()) {
    for (const auto& b : bs.shells()) {
      const auto dt = bra_derivative_block(a, b, OneEOp::kKinetic, nullptr);
      const auto dv = bra_derivative_block(a, b, OneEOp::kNuclear, &mol);
      const auto ds = bra_derivative_block(a, b, OneEOp::kOverlap, nullptr);
      for (std::size_t fa = 0; fa < a.n_functions(); ++fa)
        for (std::size_t fb = 0; fb < b.n_functions(); ++fb) {
          const double pv = p(a.first_bf + fa, b.first_bf + fb);
          const double wv = w(a.first_bf + fa, b.first_bf + fb);
          for (int c = 0; c < 3; ++c)
            grad[3 * a.atom + c] +=
                2.0 * (pv * (dt[c](fa, fb) + dv[c](fa, fb)) -
                       wv * ds[c](fa, fb));
        }
      accumulate_hellmann_feynman(a, b, mol, p, grad);
    }
  }

  const la::Vector g2 = rhf_two_electron_gradient(ctx, p);
  for (std::size_t c = 0; c < dim; ++c) grad[c] += g2[c];
  return grad;
}

la::Vector rhf_two_electron_gradient(const scf::ScfContext& ctx,
                                     const la::Matrix& density) {
  const auto& bs = ctx.bs;
  const std::size_t n = bs.n_functions();
  QFR_REQUIRE(density.rows() == n && density.cols() == n,
              "density shape does not match the context's basis");
  const Matrix& p = density;
  la::Vector grad(3 * ctx.mol.size(), 0.0);

  // Canonical quartets (a>=b, c>=d, ab>=cd) stand for the deg ordered
  // quartets they permute into, and the energy is 1/4 sum Gamma_eff (ab|cd)
  // over ordered quartets with
  //   Gamma_eff = 2 P_mn P_ls - 1/2 (P_ml P_ns + P_nl P_ms),
  // so each canonical quartet contributes deg * Gamma_eff / 4 times its
  // full derivative. The A, B and C center derivatives are bra derivatives
  // of (ab|cd), (ba|cd) and (cd|ab); translational invariance gives
  // d/dD = -(d/dA + d/dB + d/dC). A position on D's atom therefore
  // contributes +g and -g to the same atom, and is skipped.
  const Matrix& schwarz = ctx.eri.schwarz();
  constexpr double kScreen = 1e-11;
  const std::size_t ns = bs.n_shells();
  std::vector<double> weight;

  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb)
      for (std::size_t sc = 0; sc <= sa; ++sc)
        for (std::size_t sd = 0; sd <= ((sc == sa) ? sb : sc); ++sd) {
          if (schwarz(sa, sb) * schwarz(sc, sd) < kScreen) continue;
          const Shell& a = bs.shell(sa);
          const Shell& b = bs.shell(sb);
          const Shell& c = bs.shell(sc);
          const Shell& d = bs.shell(sd);
          const bool on_a = a.atom == d.atom;
          const bool on_b = b.atom == d.atom;
          const bool on_c = c.atom == d.atom;
          if (on_a && on_b && on_c) continue;

          const double deg = ((sa == sb) ? 1.0 : 2.0) *
                             ((sc == sd) ? 1.0 : 2.0) *
                             ((sa == sc && sb == sd) ? 1.0 : 2.0);
          const std::size_t na = a.n_functions(), nb = b.n_functions(),
                            nc = c.n_functions(), nd = d.n_functions();
          weight.resize(na * nb * nc * nd);
          std::size_t idx = 0;
          for (std::size_t fa = 0; fa < na; ++fa)
            for (std::size_t fb = 0; fb < nb; ++fb)
              for (std::size_t fc = 0; fc < nc; ++fc)
                for (std::size_t fd = 0; fd < nd; ++fd, ++idx) {
                  const std::size_t mu = a.first_bf + fa;
                  const std::size_t nu = b.first_bf + fb;
                  const std::size_t la_ = c.first_bf + fc;
                  const std::size_t si = d.first_bf + fd;
                  weight[idx] = 0.25 * deg *
                                (2.0 * p(mu, nu) * p(la_, si) -
                                 0.5 * (p(mu, la_) * p(nu, si) +
                                        p(nu, la_) * p(mu, si)));
                }

          // Contract one center's derivative block, whose [fa][fb][fc][fd]
          // element sits at the given strides, into grad[atom] and, by
          // translational invariance, -grad[d.atom].
          auto contract = [&](const std::array<std::vector<double>, 3>& blk,
                              std::size_t atom, std::size_t s_a,
                              std::size_t s_b, std::size_t s_c,
                              std::size_t s_d) {
            double g[3] = {0.0, 0.0, 0.0};
            std::size_t i = 0;
            for (std::size_t fa = 0; fa < na; ++fa)
              for (std::size_t fb = 0; fb < nb; ++fb)
                for (std::size_t fc = 0; fc < nc; ++fc)
                  for (std::size_t fd = 0; fd < nd; ++fd, ++i) {
                    const std::size_t at =
                        fa * s_a + fb * s_b + fc * s_c + fd * s_d;
                    for (int comp = 0; comp < 3; ++comp)
                      g[comp] += weight[i] * blk[comp][at];
                  }
            for (int comp = 0; comp < 3; ++comp) {
              grad[3 * atom + comp] += g[comp];
              grad[3 * d.atom + comp] -= g[comp];
            }
          };
          if (!on_a)
            contract(eri_bra_derivative(a, b, c, d), a.atom, nb * nc * nd,
                     nc * nd, nd, 1);
          if (!on_b)
            contract(eri_bra_derivative(b, a, c, d), b.atom, nc * nd,
                     na * nc * nd, nd, 1);
          if (!on_c)
            contract(eri_bra_derivative(c, d, a, b), c.atom, nb, 1,
                     nd * na * nb, na * nb);
        }
  return grad;
}

}  // namespace qfr::ints
