#include "qfr/integrals/eri.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"
#include "qfr/integrals/hermite.hpp"

namespace qfr::ints {

namespace {

using basis::BasisSet;
using basis::Shell;

// One Hermite term E^{ij}_t E^{kl}_u E^{mn}_v of a function pair's
// product expansion.
struct HermiteTerm {
  double e = 0.0;
  int t = 0, u = 0, v = 0;
};

// The Hermite expansion of one primitive pair: combined exponent and
// center, contraction weight, and the nonzero terms of every function pair
// [fa][fb], concatenated (pair f owns terms[start[f] .. start[f+1])).
struct PrimitivePair {
  double p = 0.0;
  geom::Vec3 center;
  double weight = 0.0;
  std::vector<HermiteTerm> terms;
  std::vector<std::size_t> start;
};

// Expand every primitive pair of (a, b). The ket side carries the sign
// (-1)^(t+u+v) of its Hermite functions' derivative relation.
std::vector<PrimitivePair> expand_pairs(const Shell& a, const Shell& b,
                                        bool ket) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const auto pw_b = basis::cartesian_powers(b.l);
  std::vector<PrimitivePair> out;
  out.reserve(a.prims.size() * b.prims.size());
  for (const auto& p1 : a.prims)
    for (const auto& p2 : b.prims) {
      const Hermite1D ex(p1.exponent, p2.exponent, a.center.x, b.center.x,
                         a.l, b.l);
      const Hermite1D ey(p1.exponent, p2.exponent, a.center.y, b.center.y,
                         a.l, b.l);
      const Hermite1D ez(p1.exponent, p2.exponent, a.center.z, b.center.z,
                         a.l, b.l);
      PrimitivePair pp;
      pp.p = ex.p();
      pp.center = {ex.center(), ey.center(), ez.center()};
      pp.weight = p1.coefficient * p2.coefficient;
      pp.start.reserve(pw_a.size() * pw_b.size() + 1);
      for (const auto& qa : pw_a)
        for (const auto& qb : pw_b) {
          pp.start.push_back(pp.terms.size());
          for (int t = 0; t <= qa.i + qb.i; ++t) {
            const double e_x = ex(qa.i, qb.i, t);
            if (e_x == 0.0) continue;
            for (int u = 0; u <= qa.j + qb.j; ++u) {
              const double e_y = ey(qa.j, qb.j, u);
              if (e_y == 0.0) continue;
              for (int v = 0; v <= qa.k + qb.k; ++v) {
                const double e_z = ez(qa.k, qb.k, v);
                if (e_z == 0.0) continue;
                const double sign = (ket && (t + u + v) % 2 == 1) ? -1.0 : 1.0;
                pp.terms.push_back({sign * e_x * e_y * e_z, t, u, v});
              }
            }
          }
        }
      pp.start.push_back(pp.terms.size());
      out.push_back(std::move(pp));
    }
  return out;
}

}  // namespace

void eri_shell_quartet(const Shell& a, const Shell& b, const Shell& c,
                       const Shell& d, std::vector<double>& out) {
  const std::size_t nab = a.n_functions() * b.n_functions();
  const std::size_t ncd = c.n_functions() * d.n_functions();
  out.assign(nab * ncd, 0.0);
  const int lab = a.l + b.l;
  const int l_total = lab + c.l + d.l;
  static const double k2Pi52 = 2.0 * std::pow(units::kPi, 2.5);

  const std::vector<PrimitivePair> bra = expand_pairs(a, b, false);
  const std::vector<PrimitivePair> ket = expand_pairs(c, d, true);

  // W[tuv][cd] = sum over the ket expansion of sign E^2 R_{t+t',u+u',v+v'},
  // for every bra Hermite index with t+u+v <= l_a+l_b, stored as a dense
  // (lab+1)^3 cube of rows of length ncd (rows past the simplex unused).
  const int n1 = lab + 1;
  auto row = [n1](int t, int u, int v) {
    return static_cast<std::size_t>((t * n1 + u) * n1 + v);
  };
  std::vector<double> w(static_cast<std::size_t>(n1 * n1 * n1) * ncd);

  for (const PrimitivePair& pb : bra)
    for (const PrimitivePair& pk : ket) {
      const double p = pb.p, q = pk.p;
      const double alpha = p * q / (p + q);
      const double pref =
          pb.weight * pk.weight * k2Pi52 / (p * q * std::sqrt(p + q));
      const HermiteR r(alpha, pb.center - pk.center, l_total);

      for (int t = 0; t <= lab; ++t)
        for (int u = 0; t + u <= lab; ++u)
          for (int v = 0; t + u + v <= lab; ++v) {
            double* wrow = w.data() + row(t, u, v) * ncd;
            for (std::size_t cd = 0; cd < ncd; ++cd) {
              double acc = 0.0;
              for (std::size_t k = pk.start[cd]; k < pk.start[cd + 1]; ++k) {
                const HermiteTerm& h = pk.terms[k];
                acc += h.e * r(t + h.t, u + h.u, v + h.v);
              }
              wrow[cd] = acc;
            }
          }

      for (std::size_t ab = 0; ab < nab; ++ab) {
        double* dst = out.data() + ab * ncd;
        for (std::size_t k = pb.start[ab]; k < pb.start[ab + 1]; ++k) {
          const HermiteTerm& h = pb.terms[k];
          const double e = pref * h.e;
          const double* wrow = w.data() + row(h.t, h.u, h.v) * ncd;
          for (std::size_t cd = 0; cd < ncd; ++cd) dst[cd] += e * wrow[cd];
        }
      }
    }
}

EriTensor::EriTensor(const BasisSet& bs, double screen_threshold) {
  nbf_ = bs.n_functions();
  const std::size_t npair = nbf_ * (nbf_ + 1) / 2;
  values_.assign(npair * (npair + 1) / 2, 0.0);

  const std::size_t ns = bs.n_shells();

  // Schwarz bounds per shell pair: sqrt(max |(ab|ab)|).
  schwarz_.resize_zero(ns, ns);
  std::vector<double> block;
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb) {
      const Shell& a = bs.shell(sa);
      const Shell& b = bs.shell(sb);
      eri_shell_quartet(a, b, a, b, block);
      const std::size_t na = a.n_functions(), nbn = b.n_functions();
      double mx = 0.0;
      for (std::size_t fa = 0; fa < na; ++fa)
        for (std::size_t fb = 0; fb < nbn; ++fb) {
          const std::size_t idx =
              ((fa * nbn + fb) * na + fa) * nbn + fb;  // (ab|ab)
          mx = std::max(mx, std::fabs(block[idx]));
        }
      schwarz_(sa, sb) = schwarz_(sb, sa) = std::sqrt(mx);
    }

  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb)
      for (std::size_t sc = 0; sc <= sa; ++sc)
        for (std::size_t sd = 0; sd <= ((sc == sa) ? sb : sc); ++sd) {
          if (schwarz_(sa, sb) * schwarz_(sc, sd) < screen_threshold) continue;
          const Shell& a = bs.shell(sa);
          const Shell& b = bs.shell(sb);
          const Shell& c = bs.shell(sc);
          const Shell& d = bs.shell(sd);
          eri_shell_quartet(a, b, c, d, block);
          const std::size_t na = a.n_functions(), nbn = b.n_functions(),
                            ncn = c.n_functions(), ndn = d.n_functions();
          std::size_t idx = 0;
          for (std::size_t fa = 0; fa < na; ++fa)
            for (std::size_t fb = 0; fb < nbn; ++fb)
              for (std::size_t fc = 0; fc < ncn; ++fc)
                for (std::size_t fd = 0; fd < ndn; ++fd, ++idx) {
                  values_[composite(a.first_bf + fa, b.first_bf + fb,
                                    c.first_bf + fc, d.first_bf + fd)] =
                      block[idx];
                }
        }
}

la::Matrix EriTensor::coulomb(const la::Matrix& density) const {
  QFR_REQUIRE(density.rows() == nbf_ && density.cols() == nbf_,
              "density shape mismatch");
  la::Matrix j(nbf_, nbf_);
  for (std::size_t i = 0; i < nbf_; ++i)
    for (std::size_t jj = 0; jj <= i; ++jj) {
      double acc = 0.0;
      for (std::size_t k = 0; k < nbf_; ++k)
        for (std::size_t l = 0; l < nbf_; ++l)
          acc += density(k, l) * (*this)(i, jj, k, l);
      j(i, jj) = j(jj, i) = acc;
    }
  return j;
}

la::Matrix EriTensor::exchange(const la::Matrix& density) const {
  QFR_REQUIRE(density.rows() == nbf_ && density.cols() == nbf_,
              "density shape mismatch");
  la::Matrix k(nbf_, nbf_);
  for (std::size_t i = 0; i < nbf_; ++i)
    for (std::size_t jj = 0; jj <= i; ++jj) {
      double acc = 0.0;
      for (std::size_t p = 0; p < nbf_; ++p)
        for (std::size_t q = 0; q < nbf_; ++q)
          acc += density(p, q) * (*this)(i, p, jj, q);
      k(i, jj) = k(jj, i) = acc;
    }
  return k;
}

}  // namespace qfr::ints
