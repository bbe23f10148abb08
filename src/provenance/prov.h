#ifndef RECNET_PROVENANCE_PROV_H_
#define RECNET_PROVENANCE_PROV_H_

#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.h"

namespace recnet {

// Which provenance model annotates view tuples (paper Section 4,
// "Provenance alternatives").
enum class ProvMode {
  // Plain set semantics: no annotations. Incremental deletion is impossible
  // locally; the DRed engine (over-delete + re-derive) uses this mode.
  kSet,
  // Absorption provenance: a Boolean function over base-tuple variables,
  // stored as a canonical ROBDD so Boolean absorption is applied
  // automatically. The paper's contribution.
  kAbsorption,
  // Relative provenance (Green et al. [14] as characterized by the paper):
  // every derivation is kept explicitly. We normalize each derivation to
  // the multiset-free set of base variables it uses and keep the full list
  // of derivations without absorption, which reproduces its larger
  // annotations and extra propagation.
  kRelative,
};

const char* ProvModeName(ProvMode mode);

// The explicit sum-of-derivations representation behind ProvMode::kRelative.
// `derivations` is sorted and deduplicated; each derivation is a sorted,
// deduplicated list of base variables. Unlike absorption provenance, a
// derivation that is a superset of another is retained.
struct RelSop {
  std::vector<std::vector<bdd::Var>> derivations;

  bool operator==(const RelSop& o) const {
    return derivations == o.derivations;
  }
};

// A provenance annotation: tagged union over the three models with the
// composition laws of the paper's Figure 6 (join = AND, union/projection =
// OR) and the deletion primitive (restrict killed variables to false).
class Prov {
 public:
  // A "no annotation / present" value (used in kSet mode and as the
  // annotation of static base relations that are never deleted).
  static Prov True(ProvMode mode, bdd::Manager* mgr);
  static Prov False(ProvMode mode, bdd::Manager* mgr);
  // The annotation of a freshly inserted base tuple: variable v.
  static Prov BaseVar(ProvMode mode, bdd::Manager* mgr, bdd::Var v);

  Prov() : mode_(ProvMode::kSet), set_true_(false) {}

  ProvMode mode() const { return mode_; }

  // Figure 6: join composes with AND.
  Prov And(const Prov& o) const;
  // Figure 6: union / duplicate-eliminating projection composes with OR.
  Prov Or(const Prov& o) const;
  // The delta between a merged annotation and the previous one
  // (Algorithm 1 line 19: deltaPv = newPv ∧ ¬oldPv). For the relative model
  // this is the set of derivations present here but not in `o`.
  Prov DeltaOver(const Prov& o) const;
  // True iff this annotation adds nothing to `o`, i.e. Or(o) == o, decided
  // without building the Or: the absorption test of Algorithm 1 lines
  // 17-25 and Algorithm 3 lines 15-18. kSet: !this || o. kAbsorption:
  // Boolean implication (bdd::Manager::Leq, which builds no node).
  // kRelative: every derivation here is already listed in `o`. Either side
  // may be a null-manager constant.
  bool Implies(const Prov& o) const;

  // Deletion of base tuples: fix all `killed` variables to false
  // (Algorithm 1 line 30 and the BDD "restrict" of Section 4.2).
  Prov RestrictFalse(const std::vector<bdd::Var>& killed) const;

  // RestrictFalse in place, for the operators' kill loops; `mask` is
  // bdd::Manager::SigMask(killed), computed once per kill. Returns whether
  // the annotation changed. An absorption annotation whose support
  // signature misses `mask` returns after one AND, without copying a
  // handle or touching a refcount; kSet annotations never change (set
  // semantics cannot apply deletions locally: that is DRed's job).
  bool RestrictFalseInPlace(const std::vector<bdd::Var>& killed,
                            uint64_t mask) {
    if (mode_ == ProvMode::kSet) return false;
    if (mode_ == ProvMode::kAbsorption &&
        (bdd_.SupportSignature() & mask) == 0) {
      return false;
    }
    return RestrictFalseSlow(killed);
  }

  // True iff no derivation survives — the tuple must leave the view.
  bool IsFalse() const;

  bool operator==(const Prov& o) const;
  bool operator!=(const Prov& o) const { return !(*this == o); }

  // Bytes this annotation adds to a shipped update (the paper's per-tuple
  // provenance overhead metric). Zero in kSet mode.
  size_t WireSizeBytes() const;

  // Appends the base variables this annotation depends on (sorted,
  // deduplicated). Drives the deletion-subscription routing.
  void SupportVars(std::vector<bdd::Var>* vars) const;

  std::string ToString() const;

  const bdd::Bdd& bdd() const { return bdd_; }
  const RelSop& rel() const { return *rel_; }

  // Raw constructors from an already-built representation. Used internally
  // by the composition laws and by the persistence layer when decoding a
  // snapshot back into annotations.
  static Prov FromBdd(bdd::Bdd b);
  static Prov FromRel(std::shared_ptr<const RelSop> rel);

 private:
  Prov(ProvMode mode, bool set_true) : mode_(mode), set_true_(set_true) {}

  // RestrictFalseInPlace past the signature screen (kAbsorption, kRelative).
  bool RestrictFalseSlow(const std::vector<bdd::Var>& killed);

  ProvMode mode_;
  bool set_true_ = false;                // kSet
  bdd::Bdd bdd_;                         // kAbsorption
  std::shared_ptr<const RelSop> rel_;    // kRelative (immutable, shared)
};

}  // namespace recnet

#endif  // RECNET_PROVENANCE_PROV_H_
