//! Proof-by-test that the fused proposal kernel is bit-for-bit equivalent
//! to the unfused reference path.
//!
//! Two forms of evidence, per the kernel's contract:
//!
//! 1. **Long-run stream equality** — two copies of the same initial state
//!    driven by identically seeded RNGs, one through the fused
//!    [`SeparationChain::propose`], one through
//!    [`SeparationChain::propose_reference`], must visit identical states,
//!    classify every step identically, and leave their RNG streams in
//!    identical positions after ≥10⁵ steps.
//! 2. **Exhaustive small-configuration enumeration** — every proposal
//!    `(configuration, particle, direction)` over all connected shapes of
//!    `n ≤ 4` particles and all of their bicolorings, under both an
//!    always-accepting and an always-rejecting Metropolis draw, with swaps
//!    on and off.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use sops_core::{construct, enumerate, Bias, Configuration, SeparationChain, StepOutcome};
use sops_lattice::{Node, DIRECTIONS};

/// An RNG whose `next_u64` is a fixed constant: `0` accepts any positive
/// Metropolis ratio, `u64::MAX` rejects any ratio below 1. Deterministic,
/// so fused and reference paths see identical draws by construction.
struct ConstRng(u64);

impl Rng for ConstRng {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// Asserts, at a checkpoint, that the fused and reference copies hold the
/// same state and that the fused copy's incrementally tracked `(e(σ), h(σ))`
/// agrees with the reference's, with a from-scratch recount, and with a
/// full audit (which also cross-checks the raster against the map).
fn assert_checkpoint(fused: &Configuration, reference: &Configuration, step: u64) {
    assert_eq!(
        fused.canonical_form(),
        reference.canonical_form(),
        "state diverged by step {step}"
    );
    let tracked = (fused.edge_count(), fused.hetero_edge_count());
    assert_eq!(
        tracked,
        (reference.edge_count(), reference.hetero_edge_count()),
        "tracked counters diverged from the reference by step {step}"
    );
    assert_eq!(
        tracked,
        fused.recount(),
        "tracked counters drifted from a recount by step {step}"
    );
    let audit = fused.audit();
    assert!(
        audit.is_consistent(),
        "audit failed at step {step}: {audit:?}"
    );
}

/// Drives the fused and reference kernels in lockstep and returns how many
/// steps were accepted moves and accepted swaps.
fn assert_streams_identical(
    chain: SeparationChain,
    start: Configuration,
    seed: u64,
    steps: u64,
) -> (u64, u64) {
    let mut fused_rng = StdRng::seed_from_u64(seed);
    let mut ref_rng = StdRng::seed_from_u64(seed);
    let mut fused_config = start;
    let mut ref_config = fused_config.clone();
    let (mut moves, mut swaps) = (0, 0);

    for step in 0..steps {
        // Replicate step_detailed's sampling so both kernels receive the
        // same proposal from the same stream position.
        let p = fused_rng.random_range(0..fused_config.len());
        let d = DIRECTIONS[fused_rng.random_range(0..6usize)];
        let p2 = ref_rng.random_range(0..ref_config.len());
        let d2 = DIRECTIONS[ref_rng.random_range(0..6usize)];
        assert_eq!((p, d), (p2, d2), "proposal streams diverged at {step}");

        let fused = chain.propose(&mut fused_config, p, d, &mut fused_rng);
        let reference = chain.propose_reference(&mut ref_config, p, d, &mut ref_rng);
        assert_eq!(fused, reference, "outcome diverged at step {step}");
        moves += u64::from(fused == StepOutcome::MoveAccepted);
        swaps += u64::from(fused == StepOutcome::SwapAccepted);
        if step % 10_000 == 0 {
            assert_checkpoint(&fused_config, &ref_config, step);
        }
    }
    assert_checkpoint(&fused_config, &ref_config, steps);
    assert_eq!(
        fused_rng.next_u64(),
        ref_rng.next_u64(),
        "RNG streams diverged over {steps} steps"
    );
    (moves, swaps)
}

fn bicolored(n: usize, n1: usize) -> Configuration {
    construct::hexagonal_bicolored(n, n1).unwrap()
}

#[test]
fn fused_kernel_is_rng_and_state_identical_over_100k_steps() {
    // The separating regime (λ, γ large), with swaps: the acceptance
    // criterion's headline equivalence run.
    let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
    assert_streams_identical(chain, bicolored(48, 24), 2024, 100_000);
}

#[test]
fn fused_kernel_equivalence_without_swaps_and_in_weak_bias_regime() {
    // Swap-ablated chain: exercises the TargetOccupiedHold path heavily.
    let chain = SeparationChain::without_swaps(Bias::new(4.0, 4.0).unwrap());
    assert_streams_identical(chain, bicolored(30, 15), 7, 60_000);
    // λ, γ < 1: every exponent sign flips, so certainly_accepts triggers on
    // the complementary set of proposals and the filter draws elsewhere.
    let chain = SeparationChain::new(Bias::new(0.8, 0.6).unwrap());
    assert_streams_identical(chain, bicolored(30, 10), 99, 60_000);
}

#[test]
fn fused_kernel_equivalence_in_the_accept_heavy_integrated_regime() {
    // λ = 4, γ = 1 at n = 100: the integrated window a sweep spends much of
    // its time in, where ~40% of steps are accepted swaps — so nearly every
    // accepted step commits from the ring-derived deltas, not a recount.
    let chain = SeparationChain::new(Bias::new(4.0, 1.0).unwrap());
    let (moves, swaps) = assert_streams_identical(chain, bicolored(100, 50), 4242, 100_000);
    assert!(moves > 1_000, "too few accepted moves: {moves}");
    assert!(swaps > 30_000, "too few accepted swaps: {swaps}");
}

#[test]
fn fused_kernel_equivalence_with_three_colors() {
    // With k = 3 a swap's third-party neighbor can match neither swapped
    // color, the case a two-color Δh shortcut would get wrong; the
    // ring-derived Δh = −(gain_i + gain_j) must still match the recount.
    let mut rng = StdRng::seed_from_u64(3);
    let nodes = construct::hexagonal_spiral(60);
    let particles = construct::multicolor_random(nodes, &[20, 20, 20], &mut rng).unwrap();
    let start = Configuration::new(particles).unwrap();
    assert_eq!(start.color_counts(), vec![20, 20, 20]);
    let chain = SeparationChain::new(Bias::new(3.0, 2.0).unwrap());
    let (moves, swaps) = assert_streams_identical(chain, start, 33, 100_000);
    assert!(moves > 1_000, "too few accepted moves: {moves}");
    assert!(swaps > 10_000, "too few accepted swaps: {swaps}");
}

#[test]
fn fused_kernel_equivalence_exhaustive_on_small_configurations() {
    // Every (shape ≤ 4, bicoloring, particle, direction, draw, swap-mode)
    // proposal: fused and reference must agree on classification and on the
    // mutated state. The ConstRng draws make both filter branches
    // deterministic, so this is a complete case analysis of the kernel.
    let chains = [
        SeparationChain::new(Bias::new(4.0, 3.0).unwrap()),
        SeparationChain::without_swaps(Bias::new(4.0, 3.0).unwrap()),
        SeparationChain::new(Bias::new(0.5, 2.0).unwrap()),
    ];
    // All connected shapes with n ≤ 4 particles, plus the six 5-star shapes
    // (a center with exactly five occupied neighbors) — the smallest
    // configurations that can trip the |N(ℓ)| = 5 guard.
    let mut all_shapes: Vec<Vec<Node>> = (1..=4).flat_map(enumerate::shapes).collect();
    for missing in DIRECTIONS {
        let mut star = vec![Node::ORIGIN];
        star.extend(
            DIRECTIONS
                .iter()
                .filter(|&&d| d != missing)
                .map(|&d| Node::ORIGIN.neighbor(d)),
        );
        all_shapes.push(star);
    }
    let mut seen = std::collections::HashSet::new();
    let mut proposals = 0u64;
    for shape in all_shapes {
        {
            let n = shape.len();
            for n1 in 0..=n {
                for coloring in enumerate::bicolorings(&shape, n1) {
                    let config = Configuration::new(coloring).unwrap();
                    for chain in &chains {
                        for particle in 0..config.len() {
                            for dir in DIRECTIONS {
                                for draw in [0, u64::MAX] {
                                    let mut fused_config = config.clone();
                                    let mut ref_config = config.clone();
                                    let fused = chain.propose(
                                        &mut fused_config,
                                        particle,
                                        dir,
                                        &mut ConstRng(draw),
                                    );
                                    let reference = chain.propose_reference(
                                        &mut ref_config,
                                        particle,
                                        dir,
                                        &mut ConstRng(draw),
                                    );
                                    assert_eq!(
                                        fused, reference,
                                        "outcome diverged: n={n} n1={n1} particle={particle} \
                                         dir={dir} draw={draw}"
                                    );
                                    assert_eq!(
                                        fused_config.canonical_form(),
                                        ref_config.canonical_form(),
                                        "state diverged: n={n} n1={n1} particle={particle} \
                                         dir={dir} draw={draw}"
                                    );
                                    seen.insert(fused);
                                    proposals += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // Every consistent-state outcome class appears in the enumeration
    // (InvalidStateHold requires a corrupted state; unit tests cover it).
    for outcome in [
        StepOutcome::MoveAccepted,
        StepOutcome::MoveRejectedFiveNeighbors,
        StepOutcome::MoveRejectedProperty,
        StepOutcome::MoveRejectedMetropolis,
        StepOutcome::SwapAccepted,
        StepOutcome::SwapRejectedMetropolis,
        StepOutcome::SameColorHold,
        StepOutcome::TargetOccupiedHold,
    ] {
        assert!(seen.contains(&outcome), "{outcome} never produced");
    }
    assert!(proposals > 10_000, "enumeration too small: {proposals}");
}
