//! Cross-crate verification of Lemmas 8 and 9: the sampling chain, the
//! exact transition matrix, and the closed-form stationary distribution all
//! agree.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sops::chains::stats::{self, EmpiricalDistribution};
use sops::chains::{MarkovChain, TransitionMatrix};
use sops::core::enumerate::{self, ExactSeparationChain};
use sops::core::{construct, Bias, CanonicalForm, Configuration, SeparationChain};

/// How a sampler-vs-π test bounds the total-variation distance.
#[derive(Clone, Copy, Debug)]
enum TvBound {
    /// A fixed bound.
    Fixed(f64),
    /// `factor` times the TV distance expected from the run's effective
    /// sample size; see [`assert_sampler_matches_pi`].
    Ess { factor: f64 },
}

/// Runs the sampling chain `make(bias)` on the enumerated `(n, n1)` space
/// from a hexagonal start (20k-step burn-in, then 60k samples taken 25
/// steps apart) and asserts that the empirical distribution of the samples
/// is within `bound` of Lemma 9's exact π in total variation. Also asserts
/// that π satisfies detailed balance for the chain's exact transition
/// matrix. Returns `(visited states, |space|)`.
///
/// The [`TvBound::Ess`] bound is derived from the run itself. Take
/// `τ = max(τ_int(p), τ_int(h))`, the integrated autocorrelation times
/// ([`stats::integrated_autocorrelation_time`]) of the sampled
/// perimeter and heterogeneous-edge series, the two statistics π depends
/// on. The `N` samples then carry `m = N / τ` effective draws. For `m`
/// independent draws the count of state `i` is binomial, and
/// `E|p̂_i − π_i| ≈ √(2 π_i (1 − π_i) / (π m))` by the normal
/// approximation, capped at `2 π_i` (since `E|p̂_i − π_i| ≤ E p̂_i + π_i`).
/// So the expected multinomial TV is
///
/// ```text
/// E[TV] ≈ ½ Σ_i min(√(2 π_i (1 − π_i) / (π m)), 2 π_i)
/// ```
///
/// and the bound is `factor · E[TV]`.
fn assert_sampler_matches_pi(
    make: fn(Bias) -> SeparationChain,
    (n, n1): (usize, usize),
    bias: Bias,
    seed: u64,
    bound: TvBound,
) -> (usize, usize) {
    const SAMPLES: usize = 60_000;
    let chain = make(bias);
    let exact = ExactSeparationChain::new(chain, n, n1);
    let matrix = TransitionMatrix::build(&exact);
    let pi = exact.lemma9_distribution(matrix.states());
    assert!(matrix.detailed_balance_violation(&pi) < 1e-12);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut config = construct::hexagonal_bicolored(n, n1).unwrap();
    let mut empirical: EmpiricalDistribution<CanonicalForm> = EmpiricalDistribution::new();
    let mut perimeter = Vec::with_capacity(SAMPLES);
    let mut hetero = Vec::with_capacity(SAMPLES);
    // Burn in, then sample sparsely to cut autocorrelation.
    chain.run(&mut config, 20_000, &mut rng);
    for _ in 0..SAMPLES {
        chain.run(&mut config, 25, &mut rng);
        empirical.record(config.canonical_form());
        perimeter.push(config.perimeter() as f64);
        hetero.push(config.hetero_edge_count() as f64);
    }

    let tv = empirical.total_variation_to(matrix.states().iter().zip(pi.iter().copied()));
    let limit = match bound {
        TvBound::Fixed(limit) => limit,
        TvBound::Ess { factor } => {
            let tau = stats::integrated_autocorrelation_time(&perimeter)
                .max(stats::integrated_autocorrelation_time(&hetero));
            let m = SAMPLES as f64 / tau;
            let expected: f64 = pi
                .iter()
                .map(|&p| {
                    let normal = (2.0 * p * (1.0 - p) / (std::f64::consts::PI * m)).sqrt();
                    normal.min(2.0 * p) / 2.0
                })
                .sum();
            factor * expected
        }
    };
    assert!(
        tv < limit,
        "({n},{n1}) space, {bias:?}, seed {seed}: TV(empirical, π) = {tv} ≥ {limit}"
    );
    (empirical.support_size(), matrix.len())
}

/// Long-run samples of the *sampling* chain must match the *exact*
/// stationary distribution of Lemma 9 in total variation.
#[test]
fn sampler_converges_to_lemma9_distribution() {
    let bias = Bias::new(2.0, 3.0).unwrap();
    let (visited, states) = assert_sampler_matches_pi(
        SeparationChain::new,
        (3, 1),
        bias,
        20180723,
        TvBound::Fixed(0.02),
    );
    // Every state of the enumerated space is visited.
    assert_eq!(visited, states);
}

/// The same agreement holds in a regime with γ < 1 (anti-separation bias).
#[test]
fn sampler_matches_exact_distribution_at_gamma_below_one() {
    let bias = Bias::new(3.0, 0.7).unwrap();
    assert_sampler_matches_pi(SeparationChain::new, (3, 1), bias, 4, TvBound::Fixed(0.02));
}

/// The swaps-off chain, which `ablate_swaps` publishes numbers from,
/// samples the same π at a separating and an integrating bias.
#[test]
fn sampler_without_swaps_matches_lemma9_distribution() {
    for (lambda, gamma, seed) in [(2.0, 3.0, 11), (3.0, 0.7, 12)] {
        let bias = Bias::new(lambda, gamma).unwrap();
        assert_sampler_matches_pi(
            SeparationChain::without_swaps,
            (3, 1),
            bias,
            seed,
            TvBound::Ess { factor: 2.0 },
        );
    }
}

/// On the 264-state (4,2) space the sampler matches π at a separating and
/// an integrating bias.
#[test]
fn sampler_matches_lemma9_distribution_on_the_4_2_space() {
    for (lambda, gamma, seed) in [(2.0, 3.0, 21), (3.0, 0.7, 22)] {
        let bias = Bias::new(lambda, gamma).unwrap();
        let (_, states) = assert_sampler_matches_pi(
            SeparationChain::new,
            (4, 2),
            bias,
            seed,
            TvBound::Ess { factor: 2.0 },
        );
        assert_eq!(states, 264);
    }
}

/// Lemma 9 on a monochromatic space is the compression measure λ^{−p}; the
/// most likely states are the minimal-perimeter ones.
#[test]
fn compression_measure_prefers_minimal_perimeter() {
    let bias = Bias::new(4.0, 1.0).unwrap();
    let chain = SeparationChain::new(bias);
    let exact = ExactSeparationChain::new(chain, 5, 0);
    let matrix = TransitionMatrix::build(&exact);
    assert!(matrix.is_irreducible());
    let pi = exact.lemma9_distribution(matrix.states());
    assert!(matrix.detailed_balance_violation(&pi) < 1e-12);

    // argmax π has minimal perimeter.
    let (best, _) = pi
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    let best_perimeter = matrix.states()[best].to_configuration().perimeter();
    assert_eq!(best_perimeter, construct::min_perimeter(5));
}

/// π weights depend only on (p(σ), h(σ)): states with equal perimeter and
/// equal heterogeneous-edge count are exactly equally likely.
#[test]
fn lemma9_weights_are_functions_of_p_and_h() {
    let bias = Bias::new(2.5, 1.7).unwrap();
    let chain = SeparationChain::new(bias);
    let exact = ExactSeparationChain::new(chain, 4, 2);
    let matrix = TransitionMatrix::build(&exact);
    let pi = exact.lemma9_distribution(matrix.states());

    let mut by_class: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
    for (state, &p) in matrix.states().iter().zip(pi.iter()) {
        let config = state.to_configuration();
        let key = (config.perimeter(), config.hetero_edge_count());
        let existing = by_class.entry(key).or_insert(p);
        assert!(
            (*existing - p).abs() < 1e-15,
            "states in class {key:?} have different masses"
        );
    }
    assert!(by_class.len() > 1);
}

/// The mixing time on the tiny space is finite and the exact t-step
/// distribution reaches π (Lemma 8's ergodicity, quantitatively).
#[test]
fn exact_chain_mixes() {
    let bias = Bias::new(2.0, 2.0).unwrap();
    let chain = SeparationChain::new(bias);
    let exact = ExactSeparationChain::new(chain, 3, 1);
    let matrix = TransitionMatrix::build(&exact);
    let pi = exact.lemma9_distribution(matrix.states());
    let t_mix = matrix
        .mixing_time(&pi, 0.25, 100_000)
        .expect("chain must mix");
    assert!(t_mix > 0);
    // And at 4× that time the distance is far below the threshold.
    let d = matrix.t_step_distribution(0, 4 * t_mix);
    assert!(TransitionMatrix::<CanonicalForm>::total_variation(&d, &pi) < 0.05);
}

/// Identity e(σ) = 3n − p(σ) − 3 (used in Lemma 9's proof) over every
/// enumerated hole-free configuration of up to 7 particles, with the
/// boundary walk as an independent perimeter oracle.
#[test]
fn perimeter_identity_exhaustive() {
    for n in 1..=7usize {
        for shape in enumerate::hole_free_shapes(n) {
            let config =
                Configuration::new(shape.into_iter().map(|nd| (nd, sops::core::Color::C1)))
                    .unwrap();
            let e = config.edge_count();
            let p = config.perimeter();
            assert_eq!(e, 3 * n as u64 - p - 3, "identity fails at n = {n}");
            assert_eq!(
                config.boundary_walk_length(),
                p,
                "walk disagrees at n = {n}"
            );
        }
    }
}
