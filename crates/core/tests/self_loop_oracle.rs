//! The turbo kernel's useless-contact count against closed forms: an
//! oracle that shares no code with the driver loop it checks.
//!
//! In a one-piece swarm whose fixed seed never uploads (`U_s = 0`), no peer
//! can ever obtain the piece. Every contact is useless, and only arrivals
//! (and, at `η > 1`, each peer's first contact, which boosts its clock)
//! change the state. The driver folds every other contact into a stretch
//! of self-loops (see `swarm::sim`), so the number `U(h)` of useless
//! contacts by the horizon `h` tests the stretch arithmetic directly: the
//! Gamma clock of a stretch, the Binomial split at a horizon or flash crowd
//! inside it, and which contacts count as self-loops. From `n₀` empty peers,
//! with arrival rate λ and contact rate µ:
//!
//! * at `η = 1`, contacts form a Poisson process of rate `µ·N(t)`, so
//!   `E[U] = µ(n₀h + λh²/2)` and `Var[U] = E[U] + µ²λh³/3`, the second
//!   term being the variance of `µ∫N` that the arrival times contribute;
//! * a flash crowd of `m` peers at `c < h` adds `µm(h − c)` to both;
//! * at `η > 1`, a peer present for a time `d` contacts once at rate µ,
//!   which boosts it, then at rate ηµ, so it makes `f(d) = (1 − e^{−µd}) +
//!   η(µd − 1 + e^{−µd})` contacts on average and `E[U] = n₀f(h) +
//!   λ∫₀ʰ f`.
//!
//! Each check holds a turbo ensemble to its closed form within five
//! standard errors, and every run must satisfy `events −
//! unsuccessful_contacts = Poisson arrivals` exactly. Each of three broken
//! drivers fails here: one that counts every self-loop of the stretch cut
//! by the horizon, one that draws `Gamma(loops + 1)` for a stretch's clock,
//! and one that treats a boosting contact as a self-loop.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own StdRng")]

use pieceset::PieceSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use swarm::policy::RandomUseful;
use swarm::sim::{AgentConfig, AgentSwarm, FlashCrowd, KernelKind, SimScratch};
use swarm::SwarmParams;

const REPLICATIONS: u64 = 4_000;
const N0: usize = 10;
const MU: f64 = 1.0;
const HORIZON: f64 = 10.0;

/// Sample mean and variance with their standard errors (the variance's
/// from the sample's fourth central moment).
struct Moments {
    mean: f64,
    mean_se: f64,
    var: f64,
    var_se: f64,
}

fn moments(samples: &[f64]) -> Moments {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let m4 = samples.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
    Moments {
        mean,
        mean_se: (var / n).sqrt(),
        var,
        var_se: ((m4 - var * var) / n).sqrt(),
    }
}

/// `U(HORIZON)` of every replication of a turbo swarm with arrival rate
/// `lambda` and retry speed-up `eta`, starting from `N0` empty peers, with
/// an optional flash crowd of empty peers. Checks the exact event identity
/// on every run.
fn useless_contacts(lambda: f64, eta: f64, crowd: Option<FlashCrowd>, seed: u64) -> Vec<f64> {
    let params = SwarmParams::builder(1)
        .seed_rate(0.0)
        .contact_rate(MU)
        .seed_departure_rate(1.0)
        .fresh_arrivals(lambda)
        .build()
        .expect("valid parameters");
    let config = AgentConfig {
        kernel: KernelKind::Turbo,
        retry_speedup: eta,
        snapshot_interval: 1.0,
        ..AgentConfig::default()
    };
    let sim = AgentSwarm::with_config(params, config, Box::new(RandomUseful))
        .expect("valid configuration");
    let initial = vec![PieceSet::empty(); N0];
    let flash: Vec<FlashCrowd> = crowd.into_iter().collect();
    let injected = crowd.map_or(0, |c| c.count as u64);
    let mut scratch = SimScratch::new();
    (0..REPLICATIONS)
        .map(|replication| {
            let mut rng = StdRng::seed_from_u64(seed ^ (replication * 0x9E37_79B9));
            let result = sim
                .run_with_scratch(&initial, &flash, HORIZON, &mut rng, &mut scratch)
                .expect("valid scenario");
            assert!(!result.truncated);
            assert_eq!(result.transfers, 0, "nobody can ever hold the piece");
            let arrivals = result.final_snapshot().total_peers - N0 as u64 - injected;
            assert_eq!(
                result.events - result.unsuccessful_contacts,
                arrivals,
                "every event but a useless contact is an arrival"
            );
            let useless = result.unsuccessful_contacts as f64;
            scratch.recycle(result);
            useless
        })
        .collect()
}

/// Fails unless `observed` lies within five standard errors of `expected`.
fn assert_within(what: &str, observed: f64, se: f64, expected: f64) {
    let z = (observed - expected) / se;
    assert!(
        z.abs() < 5.0,
        "{what}: observed {observed} vs closed form {expected} (z = {z:.2})"
    );
}

#[test]
fn useless_contacts_match_the_closed_form_at_eta_one() {
    let lambda = 4.0;
    let m = moments(&useless_contacts(lambda, 1.0, None, 0x5E1F_0001));
    let mean = MU * (N0 as f64 * HORIZON + lambda * HORIZON * HORIZON / 2.0);
    let var = mean + MU * MU * lambda * HORIZON.powi(3) / 3.0;
    assert_within("mean", m.mean, m.mean_se, mean);
    assert_within("variance", m.var, m.var_se, var);
}

#[test]
fn a_flash_crowd_inside_a_stretch_adds_its_contacts() {
    let lambda = 4.0;
    let crowd = FlashCrowd {
        time: 4.0,
        count: 30,
        pieces: PieceSet::empty(),
    };
    let m = moments(&useless_contacts(lambda, 1.0, Some(crowd), 0x5E1F_0002));
    let added = MU * crowd.count as f64 * (HORIZON - crowd.time);
    let mean = MU * (N0 as f64 * HORIZON + lambda * HORIZON * HORIZON / 2.0) + added;
    let var = mean + MU * MU * lambda * HORIZON.powi(3) / 3.0;
    assert_within("mean", m.mean, m.mean_se, mean);
    assert_within("variance", m.var, m.var_se, var);
}

#[test]
fn boosted_peers_contact_eta_times_faster_after_their_first_contact() {
    let (lambda, eta) = (2.0, 4.0);
    let m = moments(&useless_contacts(lambda, eta, None, 0x5E1F_0003));
    let decay = (-MU * HORIZON).exp();
    let f = (1.0 - decay) + eta * (MU * HORIZON - 1.0 + decay);
    let integral_f = HORIZON - (1.0 - decay) / MU
        + eta * (MU * HORIZON * HORIZON / 2.0 - HORIZON + (1.0 - decay) / MU);
    assert_within(
        "mean",
        m.mean,
        m.mean_se,
        N0 as f64 * f + lambda * integral_f,
    );
}
