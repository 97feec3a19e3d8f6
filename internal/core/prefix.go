package core

import "fmt"

// This file classifies strategies for trajectory-prefix sharing — the
// warm-start machinery behind the experiment sweeps' snapshot reuse
// (DESIGN.md §10).
//
// The observation: until a strategy performs its first synchronization,
// the training trajectory does not depend on the parameters that decide
// *when* that synchronization fires. Workers step locally from the same
// w0, with the same shards, samplers and optimizers; the strategy only
// watches. Two grid cells that differ solely in sync-time parameters
// (Θ, or τ within limits below) therefore share a bit-identical prefix,
// and a snapshot taken inside that prefix by one cell can warm-start
// the other — provided the snapshot also proves the consumer would not
// have synchronized anywhere inside it. That proof takes two forms:
//
//   - Statistic-triggered strategies (the FDA family) sync when their
//     per-step statistic h exceeds Θ (strictly). The snapshot records
//     guard = max(h_1..h_n); a consumer accepts iff guard ≤ its own Θ,
//     the exact complement of the trigger. The h sequence itself is
//     Θ-independent before the first sync, but it is NOT variant-
//     independent — each FDA variant computes a different h and meters
//     different state traffic per step — so each variant is its own
//     family.
//
//   - Schedule-triggered strategies (LocalSGD and the FedOpt rounds) do nothing
//     at all before their first scheduled action: no collective, no
//     metered traffic, no state change. They all share one "silent"
//     family, and a consumer accepts a prefix iff it ends strictly
//     before its own first scheduled action. Sharing here crosses
//     strategy boundaries: a LocalSGD(τ=20) prefix serves a FedAvgM
//     cell whose first round lands later.
//
// Synchronous syncs at step 1 and has no shareable prefix, so it simply
// does not implement PrefixSharer (nor does any wrapper whose trigger
// state mutates before the first sync).

// PrefixSharer is implemented by strategies that can publish and
// consume trajectory-prefix snapshots. All three methods are meaningful
// only after Init (families and first actions may be derived from the
// environment) and before the strategy's first synchronization.
type PrefixSharer interface {
	Strategy
	// PrefixFamily names the class of strategies whose pre-first-sync
	// trajectory is identical to this one's. Equal family strings (for
	// cells that agree on everything but sync-time parameters) mean
	// interchangeable prefixes.
	PrefixFamily() string
	// PrefixGuard returns the running maximum of the strategy's sync
	// statistic over the steps taken so far (0 for schedule-driven
	// strategies, which have no statistic).
	PrefixGuard() float64
	// AcceptPrefix reports whether this (freshly initialized) strategy
	// would have stayed silent through a prefix of the given length with
	// the given published guard.
	AcceptPrefix(steps int, guard float64) bool
}

// --- statistic-triggered family: FDA -------------------------------

// PrefixGuard implements PrefixSharer for the FDA variants: maxStat is
// maintained by each variant's AfterLocalStep.
func (b *fdaBase) PrefixGuard() float64 { return b.maxStat }

// AcceptPrefix implements PrefixSharer: h ≤ Θ everywhere in the prefix
// is the exact complement of the strict h > Θ sync trigger, so the
// consumer provably never fires inside it.
func (b *fdaBase) AcceptPrefix(_ int, guard float64) bool { return guard <= b.Theta }

// PrefixFamily implements PrefixSharer. ξ is zero until the second
// synchronization, so every LinearFDA prefix has the same h sequence.
func (l *LinearFDA) PrefixFamily() string { return "LinearFDA/xi0" }

// PrefixFamily implements PrefixSharer. The sketch width, error bound and
// hash seed shape both the h sequence and the per-step state traffic, so
// they are part of the family; call after Init (which derives the width
// and bound from the model dimension).
func (s *SketchFDA) PrefixFamily() string {
	return fmt.Sprintf("SketchFDA/l%d/m%d/e%g/s%d", sketchDepth, s.m, s.eps, s.seed)
}

// PrefixFamily implements PrefixSharer.
func (o *OracleFDA) PrefixFamily() string { return "OracleFDA" }

// --- schedule-triggered family: silent until the first action ------

// silentFamily is shared by every strategy that performs no collective
// and mutates no state before its first scheduled synchronization.
const silentFamily = "silent"

// PrefixFamily implements PrefixSharer.
func (l *LocalSGD) PrefixFamily() string { return silentFamily }

// PrefixGuard implements PrefixSharer.
func (l *LocalSGD) PrefixGuard() float64 { return 0 }

// AcceptPrefix implements PrefixSharer: silent strictly before the
// first round boundary at τ.
func (l *LocalSGD) AcceptPrefix(steps int, _ float64) bool { return steps < l.Tau }

// PrefixFamily implements PrefixSharer.
func (f *FedOpt) PrefixFamily() string { return silentFamily }

// PrefixGuard implements PrefixSharer.
func (f *FedOpt) PrefixGuard() float64 { return 0 }

// AcceptPrefix implements PrefixSharer: silent strictly before the
// first round boundary.
func (f *FedOpt) AcceptPrefix(steps int, _ float64) bool { return steps < f.roundSteps }
