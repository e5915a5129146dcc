//! Epoch-granular checkpoint/resume must be invisible to training: a run
//! interrupted after any epoch and restored from its checkpoint produces
//! bit-identical networks, RNG streams, and replay contents.

use cache_sim::{AccessKind, CacheConfig, LlcRecord, LlcTrace};
use rl::{AgentConfig, FeatureSet, Mlp, Trainer};

fn thrash_trace(lines: u64, len: usize) -> LlcTrace {
    (0..len)
        .map(|i| LlcRecord {
            pc: 0x400 + (i as u64 % lines) * 4,
            line: i as u64 % lines,
            kind: AccessKind::Load,
            core: 0,
        })
        .collect()
}

fn small_cache() -> CacheConfig {
    CacheConfig { sets: 2, ways: 4, latency: 1 }
}

fn checkpoint_bytes(trainer: &Trainer, epoch: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    trainer.save_checkpoint(&mut buf, epoch).expect("in-memory save");
    buf
}

#[test]
fn resumed_training_is_bit_identical_to_uninterrupted() {
    let cache = small_cache();
    let trace = thrash_trace(12, 3000);
    let config = AgentConfig::small(FeatureSet::full(), 21);
    const EPOCHS: usize = 4;
    const CUT: usize = 2;

    // Uninterrupted reference run.
    let mut straight = Trainer::new(config, &cache);
    for _ in 0..EPOCHS {
        let _ = straight.train_epoch(&trace, &cache);
    }

    // Interrupted run: train CUT epochs, checkpoint, "crash", restore,
    // finish the remaining epochs from the checkpoint.
    let mut first_half = Trainer::new(config, &cache);
    for _ in 0..CUT {
        let _ = first_half.train_epoch(&trace, &cache);
    }
    let ck = checkpoint_bytes(&first_half, CUT as u64);
    drop(first_half);
    let (mut resumed, done) = Trainer::load_checkpoint(ck.as_slice(), &cache).expect("restore");
    assert_eq!(done, CUT as u64);
    for _ in done as usize..EPOCHS {
        let _ = resumed.train_epoch(&trace, &cache);
    }

    // Byte-level equality of the full training state (weights, momentum,
    // target net, RNG streams, replay buffer) — not just similar metrics.
    assert_eq!(
        checkpoint_bytes(&straight, EPOCHS as u64),
        checkpoint_bytes(&resumed, EPOCHS as u64),
        "resumed training state must be bit-identical to the uninterrupted run"
    );
    assert_eq!(straight.evaluate(&trace, &cache), resumed.evaluate(&trace, &cache));
}

#[test]
fn checkpoint_with_target_network_roundtrips() {
    let cache = small_cache();
    let trace = thrash_trace(10, 1500);
    let mut config = AgentConfig::small(FeatureSet::full(), 5);
    config.target_sync = 64;

    let mut straight = Trainer::new(config, &cache);
    let mut interrupted = Trainer::new(config, &cache);
    let _ = straight.train_epoch(&trace, &cache);
    let _ = interrupted.train_epoch(&trace, &cache);
    let ck = checkpoint_bytes(&interrupted, 1);
    let (mut resumed, _) = Trainer::load_checkpoint(ck.as_slice(), &cache).expect("restore");

    let _ = straight.train_epoch(&trace, &cache);
    let _ = resumed.train_epoch(&trace, &cache);
    assert_eq!(checkpoint_bytes(&straight, 2), checkpoint_bytes(&resumed, 2));
}

#[test]
fn corrupt_or_mismatched_checkpoints_are_rejected() {
    let cache = small_cache();
    let trace = thrash_trace(8, 500);
    let mut trainer = Trainer::new(AgentConfig::small(FeatureSet::full(), 3), &cache);
    let _ = trainer.train_epoch(&trace, &cache);
    let ck = checkpoint_bytes(&trainer, 1);

    // Truncation anywhere must fail cleanly, never panic or mis-restore.
    for cut in [0, 3, 10, ck.len() / 2, ck.len() - 1] {
        assert!(Trainer::load_checkpoint(&ck[..cut], &cache).is_err(), "cut at {cut}");
    }
    // Bad magic.
    let mut bad = ck.clone();
    bad[0] = b'X';
    assert!(Trainer::load_checkpoint(bad.as_slice(), &cache).is_err());
    // A different cache geometry must be refused, not silently adopted.
    let other = CacheConfig { sets: 4, ways: 8, latency: 1 };
    assert!(Trainer::load_checkpoint(ck.as_slice(), &other).is_err());
}

/// FNV-1a over a byte stream: a compact fingerprint for pinned state.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A mixed-reuse stream over a 16-way cache, so the full 334-input encoder
/// and a realistic hidden layer are exercised.
fn mixed_trace(len: usize) -> LlcTrace {
    (0..len as u64)
        .map(|i| {
            let line = if i % 3 == 0 { i % 80 } else { (i * 37) % 150 };
            LlcRecord {
                pc: 0x400 + (line % 11) * 4,
                line,
                kind: if i % 5 == 0 { AccessKind::Rfo } else { AccessKind::Load },
                core: 0,
            }
        })
        .collect()
}

/// Pins the exact training trajectory: two epochs' mean TD loss (as raw
/// bits) and a fingerprint of the complete checkpoint (weights, momentum,
/// target net, RNG streams, replay buffer). Any change to the network's
/// floating-point evaluation order shows up here.
#[test]
fn training_trajectory_is_pinned_bit_for_bit() {
    let cache = CacheConfig { sets: 4, ways: 16, latency: 1 };
    let trace = mixed_trace(2500);
    let mut small = AgentConfig::small(FeatureSet::full(), 11);
    small.hidden = 24;
    let mut wide = AgentConfig::small(FeatureSet::full(), 12);
    wide.hidden = 64;
    wide.target_sync = 50;
    let pins: [(AgentConfig, [u64; 2], u64); 2] = [
        (small, [0x3fe1_9560_ea1f_095b, 0x3fe7_c25e_70c3_e261], 0x15d1_b909_ddf9_c92b),
        (wide, [0x3fe1_d7e1_2d38_b170, 0x3fe9_451e_f2fb_d1be], 0xfaa0_4e80_6fac_809a),
    ];
    for (config, losses, digest) in pins {
        let mut trainer = Trainer::new(config, &cache);
        let got: Vec<u64> =
            (0..2).map(|_| trainer.train_epoch(&trace, &cache).mean_loss.to_bits()).collect();
        let got_digest = fnv1a(&checkpoint_bytes(&trainer, 2));
        assert_eq!(
            (got.as_slice(), got_digest),
            (losses.as_slice(), digest),
            "hidden {}: loss bits {got:#x?}, checkpoint fnv1a {got_digest:#018x}",
            config.hidden
        );
    }
}

/// Pins the `MLP1` bytes of a freshly initialised paper-sized network.
#[test]
fn fresh_network_bytes_are_pinned() {
    let mut buf = Vec::new();
    Mlp::new(334, 175, 16, 7).save(&mut buf).expect("in-memory save");
    assert_eq!(buf.len(), 4 + 3 * 8 + 4 * (334 * 175 + 175 + 175 * 16 + 16));
    assert_eq!(fnv1a(&buf), 0x93ba_3c93_b8e5_34ca, "fnv1a {:#018x}", fnv1a(&buf));
}

/// `first_layer_weights()` is `[hidden][inputs]` row-major, the order the
/// `MLP1` format stores the first layer in.
#[test]
fn first_layer_weights_are_hidden_major() {
    let (inputs, hidden, outputs) = (3usize, 2usize, 1usize);
    let w = |h: usize, i: usize| (10 * h + i + 1) as f32 / 64.0;
    let mut bytes = b"MLP1".to_vec();
    for d in [inputs, hidden, outputs] {
        bytes.extend_from_slice(&(d as u64).to_le_bytes());
    }
    let mut push = |v: f32| bytes.extend_from_slice(&v.to_le_bytes());
    for h in 0..hidden {
        for i in 0..inputs {
            push(w(h, i));
        }
    }
    (0..hidden).for_each(|_| push(0.0)); // b1
    [0.0, 1.0].into_iter().for_each(&mut push); // w2: only hidden 1 feeds the output
    push(0.0); // b2
    let net = Mlp::load(bytes.as_slice()).expect("load");
    let weights = net.first_layer_weights();
    for h in 0..hidden {
        for i in 0..inputs {
            assert_eq!(weights[h * inputs + i], w(h, i), "h {h}, i {i}");
        }
    }
    // The same index really is the input-i → hidden-h connection.
    let out = net.predict(&[0.0, 0.0, 1.0]);
    assert_eq!(out, vec![w(1, 2).tanh()]);
}
