#include "qfr/traj/tiered_engine.hpp"

#include <utility>

#include "qfr/cache/canonical.hpp"
#include "qfr/common/error.hpp"
#include "qfr/fault/validator.hpp"
#include "qfr/obs/session.hpp"

namespace qfr::traj {

TieredReuseEngine::TieredReuseEngine(const engine::FragmentEngine& primary,
                                     cache::ResultCache& cache,
                                     ReuseOptions opts)
    : primary_(primary), cache_(cache), opts_(opts) {
  QFR_REQUIRE(opts_.refresh_radius_bohr >= 0.0,
              "refresh radius must be >= 0");
}

engine::FragmentResult TieredReuseEngine::compute(
    const chem::Molecule& mol) const {
  return compute_tiered(mol, nullptr, [&] { return primary_.compute(mol); });
}

engine::FragmentResult TieredReuseEngine::compute(
    std::size_t fragment_id, const chem::Molecule& mol) const {
  return compute_tiered(
      mol, nullptr, [&] { return primary_.compute(fragment_id, mol); });
}

engine::FragmentResult TieredReuseEngine::compute(
    std::size_t fragment_id, const chem::Molecule& mol,
    const std::vector<chem::Bond>& bonds) const {
  return compute_tiered(mol, &bonds, [&] {
    return primary_.compute(fragment_id, mol, bonds);
  });
}

namespace {

void bump(const char* metric) {
  if (obs::Session* s = obs::current()) s->metrics().counter(metric).add(1);
}

}  // namespace

engine::FragmentResult TieredReuseEngine::compute_tiered(
    const chem::Molecule& mol, const std::vector<chem::Bond>* bonds,
    const ComputeFn& full) const {
  const std::string ns = primary_.name();
  const cache::Canonicalization c =
      cache::canonicalize(mol, cache_.options().tolerance, ns);

  // Tier 1 — exact: the key is cached, the geometry moved rigidly.
  if (std::optional<engine::FragmentResult> canonical = cache_.probe(c)) {
    exact_.fetch_add(1, std::memory_order_relaxed);
    bump("qfr.traj.tier_exact");
    engine::FragmentResult out = cache::to_lab_frame(*canonical, c);
    out.reuse_tier = engine::ReuseTier::kExact;
    return out;
  }

  // Tier 2 — perturbative refresh: a cached anchor within the radius.
  if (std::optional<cache::NearHit> near =
          cache_.find_near(c, opts_.refresh_radius_bohr)) {
    // The cached tensors are exact for the old geometry. Transport them
    // into the query's lab frame, then absorb the internal distortion
    // with a cheap-surrogate first-order delta: the rigid-motion part of
    // the frame change is exact (tensors transform covariantly), and the
    // delta Model(G_new) - Model(G_old) carries the rest to first order.
    engine::FragmentResult anchor = cache::to_lab_frame(near->canonical, c);

    // Old geometry in the query's lab frame and atom order: canonical
    // positions of the cached key mapped through the query's transform
    // (lab = R^T * canonical + center, slot -> original index via perm).
    chem::Molecule old_mol = mol;
    const auto& rot = c.rot;
    for (std::size_t slot = 0; slot < c.perm.size(); ++slot) {
      const geom::Vec3& p = near->old_canonical_pos[slot];
      old_mol.atom(c.perm[slot]).position =
          geom::Vec3{rot[0] * p.x + rot[3] * p.y + rot[6] * p.z,
                     rot[1] * p.x + rot[4] * p.y + rot[7] * p.z,
                     rot[2] * p.x + rot[5] * p.y + rot[8] * p.z} +
          c.center;
    }

    // The delta must use the same topology the anchor was computed with:
    // the explicit bond list when the runtime provides one (bond
    // perception on a distorted geometry could disagree with it and turn
    // the first-order delta into a force-field swap).
    const engine::FragmentResult m_new =
        bonds != nullptr ? surrogate_.compute_with_topology(mol, *bonds)
                         : surrogate_.compute(mol);
    const engine::FragmentResult m_old =
        bonds != nullptr ? surrogate_.compute_with_topology(old_mol, *bonds)
                         : surrogate_.compute(old_mol);

    engine::FragmentResult out = std::move(anchor);
    out.energy += m_new.energy - m_old.energy;
    out.hessian += m_new.hessian;
    out.hessian -= m_old.hessian;
    out.alpha += m_new.alpha;
    out.alpha -= m_old.alpha;
    out.dalpha += m_new.dalpha;
    out.dalpha -= m_old.dalpha;
    out.dmu += m_new.dmu;
    out.dmu -= m_old.dmu;
    out.reuse_tier = engine::ReuseTier::kRefresh;

    const bool ok =
        cache::result_is_finite(out) &&
        (opts_.validator == nullptr || opts_.validator->validate(out).ok);
    if (ok) {
      refresh_.fetch_add(1, std::memory_order_relaxed);
      bump("qfr.traj.tier_refresh");
      return out;
    }
    // A rejected refresh falls through to the full tier — the validator
    // gate guarantees a refresh is never worse than recomputing.
    refresh_rejected_.fetch_add(1, std::memory_order_relaxed);
    bump("qfr.traj.tier_refresh_rejected");
  }

  // Tier 3 — full recompute through the cache (single-flight + insert):
  // this also renews the anchor future frames will refresh against. A
  // concurrent leader may have published the key meanwhile, in which
  // case the result comes back as an exact transport.
  engine::FragmentResult out = cache_.get_or_compute(ns, mol, full);
  if (out.reuse_tier == engine::ReuseTier::kExact) {
    exact_.fetch_add(1, std::memory_order_relaxed);
    bump("qfr.traj.tier_exact");
  } else {
    full_.fetch_add(1, std::memory_order_relaxed);
    bump("qfr.traj.tier_full");
  }
  return out;
}

TierCounts TieredReuseEngine::counts() const {
  TierCounts t;
  t.exact = exact_.load(std::memory_order_relaxed);
  t.refresh = refresh_.load(std::memory_order_relaxed);
  t.full = full_.load(std::memory_order_relaxed);
  t.refresh_rejected = refresh_rejected_.load(std::memory_order_relaxed);
  return t;
}

}  // namespace qfr::traj
