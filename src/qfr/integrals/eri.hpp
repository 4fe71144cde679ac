#pragma once

#include <cstddef>
#include <vector>

#include "qfr/basis/basis.hpp"
#include "qfr/la/matrix.hpp"

namespace qfr::ints {

/// Compute the block of integrals (ab|cd) for one shell quartet into
/// `out`, flattened as [fa][fb][fc][fd] (McMurchie-Davidson; arbitrary
/// angular momenta within the Hermite table limits). Exposed for the
/// derivative-integral machinery in gradients.cpp.
///
/// Each primitive pair's Hermite expansion is built once per quartet, and
/// every primitive quartet contracts in two steps: the ket expansion
/// against R into W[tuv][fc fd] for all t+u+v <= l_a+l_b, then the bra
/// expansion against W for each (fa, fb).
void eri_shell_quartet(const basis::Shell& a, const basis::Shell& b,
                       const basis::Shell& c, const basis::Shell& d,
                       std::vector<double>& out);

/// Two-electron repulsion integrals (mu nu | lambda sigma) in chemists'
/// notation, stored with full 8-fold permutational symmetry.
///
/// Shell quartets below the Schwarz screening threshold are skipped (their
/// storage stays zero), which is what keeps fragment-sized molecules cheap.
/// This exact-Hartree path is the internal reference that validates the
/// grid-based Poisson solver and the DFPT response machinery.
class EriTensor {
 public:
  explicit EriTensor(const basis::BasisSet& bs,
                     double screen_threshold = 1e-12);

  std::size_t n_functions() const { return nbf_; }

  /// (ij|kl) with arbitrary index order.
  double operator()(std::size_t i, std::size_t j, std::size_t k,
                    std::size_t l) const {
    return values_[composite(i, j, k, l)];
  }

  /// Coulomb matrix J_ij = sum_kl P_kl (ij|kl).
  la::Matrix coulomb(const la::Matrix& density) const;

  /// Exchange matrix K_ij = sum_kl P_kl (ik|jl).
  la::Matrix exchange(const la::Matrix& density) const;

  /// Number of stored unique values (diagnostics).
  std::size_t storage_size() const { return values_.size(); }

  /// Schwarz bound of every shell pair, sqrt(max |(ab|ab)|) over the pair's
  /// functions (ns x ns, symmetric). By Cauchy-Schwarz it bounds every
  /// integral of the quartet (ab|cd) by schwarz(a,b) * schwarz(c,d).
  const la::Matrix& schwarz() const { return schwarz_; }

 private:
  static std::size_t pair_index(std::size_t i, std::size_t j) {
    return (i >= j) ? i * (i + 1) / 2 + j : j * (j + 1) / 2 + i;
  }
  static std::size_t composite(std::size_t i, std::size_t j, std::size_t k,
                               std::size_t l) {
    const std::size_t ij = pair_index(i, j);
    const std::size_t kl = pair_index(k, l);
    return (ij >= kl) ? ij * (ij + 1) / 2 + kl : kl * (kl + 1) / 2 + ij;
  }

  std::size_t nbf_ = 0;
  std::vector<double> values_;
  la::Matrix schwarz_;
};

}  // namespace qfr::ints
