//! One adversarial suite over all six binary decoders — the five
//! `from_bytes` (PFSC session checkpoints, PFDB detector bundles, PFBB
//! incident dumps, PFDF drift fingerprints, PFIB ingest batches) plus
//! `load_weights` (PFNN network weights):
//!
//! * arbitrary bytes never panic;
//! * every truncation of a valid blob is refused;
//! * every single-bit flip of a checksummed blob (PFSC, PFDF) is
//!   refused;
//! * any blob a decoder accepts re-encodes to exactly the same bytes —
//!   checked on arbitrary input, on valid blobs with one byte
//!   overwritten (checksums re-sealed so the field parser is reached),
//!   and on the committed fixtures.

use prefall::blackbox::dump::{IncidentDump, IncidentKind, SampleRecord, TrialMeta, WindowRecord};
use prefall::core::detector::{DetectorConfig, GuardConfig, GuardStatus};
use prefall::core::fnv1a64;
use prefall::core::models::ModelKind;
use prefall::core::persist::DetectorBundle;
use prefall::core::pipeline::PipelineConfig;
use prefall::core::session::{ModelBundle, SessionCheckpoint};
use prefall::drift::Fingerprint;
use prefall::dsp::segment::Overlap;
use prefall::dsp::stats::Normalizer;
use prefall::fleet::protocol::{BatchSample, IngestBatch};
use prefall::nn::network::{BranchStat, Network};
use prefall::nn::serialize::{load_weights, save_weights};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One binary format under test.
struct Format {
    name: &'static str,
    /// A valid blob of the format.
    valid: Vec<u8>,
    /// Whether the blob ends in an FNV-1a trailer.
    checksummed: bool,
    /// Decodes `bytes` and re-encodes what the decoder accepted;
    /// `None` when it refused.
    reencode: fn(&[u8]) -> Option<Vec<u8>>,
}

fn small_net() -> Network {
    Network::builder(vec![6])
        .dense(4)
        .unwrap()
        .relu()
        .dense(1)
        .unwrap()
        .build(1)
}

fn pfsc() -> Vec<u8> {
    let cfg = DetectorConfig::paper_400ms();
    let w = cfg.pipeline.segmentation.window();
    let net = ModelKind::ProposedCnn.build(w, 9, 5).unwrap();
    let bundle = ModelBundle::new(net, Normalizer::identity(9), cfg).unwrap();
    let mut s = bundle.new_session();
    for i in 0..60 {
        let t = i as f32 * 0.07;
        let _ = s.push_sample(
            &bundle,
            [0.05 * t.sin(), 0.04 * t.cos(), 1.0],
            [0.2 * (1.1 * t).sin(), 0.0, 0.1],
        );
    }
    let _ = s.push_missing(&bundle);
    s.checkpoint().to_bytes()
}

fn pfdb() -> Vec<u8> {
    // A 4-sample, 2-channel MLP keeps the blob small.
    let window = 4;
    DetectorBundle {
        model: ModelKind::Mlp,
        window,
        channels: 2,
        init_seed: 3,
        pipeline: PipelineConfig::paper(40.0, Overlap::Half),
        normalizer: Normalizer::from_parts(vec![0.5, -1.0], vec![2.0, 0.25]).unwrap(),
        network: ModelKind::Mlp.build(window, 2, 3).unwrap(),
    }
    .to_bytes()
}

fn pfbb() -> Vec<u8> {
    let stat = |l2: f32| BranchStat {
        output_len: 4,
        l2,
        mean_abs: l2 / 2.0,
        peak: l2,
    };
    let empty = BranchStat {
        output_len: 0,
        l2: 0.0,
        mean_abs: 0.0,
        peak: 0.0,
    };
    IncidentDump {
        id: "inc-7".to_string(),
        kind: IncidentKind::MissedFall,
        reason: "fall ended untriggered".to_string(),
        created_at_sample: 90,
        truncated: false,
        trial: Some(TrialMeta {
            subject: 2,
            task: 21,
            trial_index: 0,
            is_fall: true,
            impact: None,
        }),
        triggered_at: Some(80),
        lead_time_ms: None,
        threshold: 0.6,
        consecutive: 2,
        guard_config: GuardConfig::default(),
        guard: GuardStatus {
            samples: 90,
            gaps_filled: 1,
            ..GuardStatus::default()
        },
        model_blob: vec![9, 8, 7],
        samples: vec![
            SampleRecord {
                flags: 0,
                accel: [0.0, 0.1, 1.0],
                gyro: [0.5, 0.0, -0.5],
            },
            SampleRecord {
                flags: SampleRecord::MISSING,
                accel: [f32::NAN, 0.0, 0.0],
                gyro: [0.0; 3],
            },
        ],
        windows: vec![
            WindowRecord {
                at_sample: 40,
                score: 0.25,
                flags: 0,
                n_branch: 3,
                branches: [stat(1.0), stat(0.5), stat(0.25), empty],
            },
            WindowRecord {
                at_sample: 60,
                score: 0.75,
                flags: WindowRecord::ARMED,
                n_branch: 0,
                branches: [empty; 4],
            },
        ],
    }
    .to_bytes()
}

fn pfdf() -> Vec<u8> {
    let mut fp = Fingerprint::new();
    for i in 0..200 {
        let t = i as f32 * 0.11;
        fp.observe_sample([t.sin(), 0.2 * t.cos(), 1.0], [3.0 * t.sin(), 0.0, -1.0]);
        if i % 10 == 0 {
            fp.observe_score(0.5 + 0.4 * t.sin());
            fp.observe_shares(&[0.5, 0.3, 0.2]);
        }
    }
    fp.to_bytes()
}

fn pfib() -> Vec<u8> {
    IngestBatch {
        wearer: 11,
        seq: 4000,
        samples: vec![
            BatchSample::Sample {
                accel: [0.0, -0.5, 1.0],
                gyro: [10.0, 0.0, -10.0],
            },
            BatchSample::Missing,
            BatchSample::Sample {
                accel: [f32::NAN, f32::INFINITY, -0.0],
                gyro: [0.0; 3],
            },
        ],
    }
    .to_bytes()
}

fn pfnn() -> Vec<u8> {
    save_weights(&mut small_net())
}

fn formats() -> &'static [Format] {
    static FORMATS: OnceLock<Vec<Format>> = OnceLock::new();
    FORMATS.get_or_init(|| {
        vec![
            Format {
                name: "PFSC",
                valid: pfsc(),
                checksummed: true,
                reencode: |b| SessionCheckpoint::from_bytes(b).ok().map(|c| c.to_bytes()),
            },
            Format {
                name: "PFDB",
                valid: pfdb(),
                checksummed: false,
                reencode: |b| DetectorBundle::from_bytes(b).ok().map(|mut d| d.to_bytes()),
            },
            Format {
                name: "PFNN",
                valid: pfnn(),
                checksummed: false,
                reencode: |b| {
                    let mut net = small_net();
                    load_weights(&mut net, b).ok()?;
                    Some(save_weights(&mut net))
                },
            },
            Format {
                name: "PFBB",
                valid: pfbb(),
                checksummed: false,
                reencode: |b| IncidentDump::from_bytes(b).ok().map(|d| d.to_bytes()),
            },
            Format {
                name: "PFDF",
                valid: pfdf(),
                checksummed: true,
                reencode: |b| Fingerprint::from_bytes(b).ok().map(|f| f.to_bytes()),
            },
            Format {
                name: "PFIB",
                valid: pfib(),
                checksummed: false,
                reencode: |b| IngestBatch::from_bytes(b).ok().map(|x| x.to_bytes()),
            },
        ]
    })
}

/// `body` with a fresh FNV-1a trailer, so a checksummed decoder gets
/// past the checksum and into its field parser.
fn reseal(body: &[u8]) -> Vec<u8> {
    let mut b = body.to_vec();
    b.extend_from_slice(&fnv1a64(body).to_le_bytes());
    b
}

/// Feeds `bytes` to `f` (re-sealed first for checksummed formats) and
/// fails unless the decoder refuses or re-encodes it exactly.
fn check_canonical(f: &Format, bytes: &[u8]) -> Result<(), TestCaseError> {
    let input = if f.checksummed {
        reseal(bytes)
    } else {
        bytes.to_vec()
    };
    if let Some(again) = (f.reencode)(&input) {
        prop_assert!(
            again == input,
            "{} accepted {} bytes that re-encode differently",
            f.name,
            input.len()
        );
    }
    Ok(())
}

/// The valid blob a mutation starts from: the body without its
/// trailer for checksummed formats (re-sealed by `check_canonical`).
fn body(f: &Format) -> &[u8] {
    if f.checksummed {
        &f.valid[..f.valid.len() - 8]
    } else {
        &f.valid
    }
}

#[test]
fn valid_blobs_decode_and_reencode_exactly() {
    for f in formats() {
        assert_eq!(
            (f.reencode)(&f.valid).as_deref(),
            Some(&f.valid[..]),
            "{}",
            f.name
        );
    }
}

#[test]
fn committed_fixtures_reencode_exactly() {
    let pfbb = include_bytes!("../ci/golden_incident.pfbb");
    let dump = IncidentDump::from_bytes(pfbb).unwrap();
    assert_eq!(dump.to_bytes(), pfbb);
    // The embedded PFDB bundle, and the PFNN weights inside it.
    let mut bundle = DetectorBundle::from_bytes(&dump.model_blob).unwrap();
    assert_eq!(bundle.to_bytes(), dump.model_blob);

    let pfdf = include_bytes!("../ci/drift_reference.pfdf");
    assert_eq!(Fingerprint::from_bytes(pfdf).unwrap().to_bytes(), pfdf);
}

#[test]
fn every_truncation_is_refused() {
    for f in formats() {
        for len in 0..f.valid.len() {
            assert!(
                (f.reencode)(&f.valid[..len]).is_none(),
                "{} accepted a truncation to {len} bytes",
                f.name
            );
        }
        if f.checksummed {
            // Truncated bodies under a valid trailer reach the parser.
            let body = body(f);
            for len in 0..body.len() {
                assert!(
                    (f.reencode)(&reseal(&body[..len])).is_none(),
                    "{} accepted a re-sealed truncation to {len} bytes",
                    f.name
                );
            }
        }
    }
}

#[test]
fn trailing_bytes_are_refused() {
    for f in formats() {
        let mut long = body(f).to_vec();
        long.push(0);
        let long = if f.checksummed { reseal(&long) } else { long };
        assert!(
            (f.reencode)(&long).is_none(),
            "{} accepted a trailing byte",
            f.name
        );
    }
}

#[test]
fn every_bit_flip_of_a_checksummed_blob_is_refused() {
    for f in formats().iter().filter(|f| f.checksummed) {
        let mut flipped = f.valid.clone();
        for bit in 0..flipped.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                (f.reencode)(&flipped).is_none(),
                "{} accepted a flip of bit {bit}",
                f.name
            );
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes — bare, and behind a prefix of a valid blob
    /// (the whole blob included) — never panic, and anything accepted
    /// re-encodes exactly.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(0u8..=255, 0..=512),
        prefix in 0usize..=4096,
    ) {
        for f in formats() {
            (f.reencode)(&bytes);
            check_canonical(f, &bytes)?;
            let body = body(f);
            let mut spliced = body[..prefix.min(body.len())].to_vec();
            spliced.extend_from_slice(&bytes);
            check_canonical(f, &spliced)?;
        }
    }

    /// A valid blob with one byte overwritten is refused or re-encodes
    /// exactly — the strict bool/tag and trailing-byte rules at work.
    #[test]
    fn overwritten_blobs_are_refused_or_canonical(
        at in 0usize..1 << 16,
        byte in 0u8..=255,
    ) {
        for f in formats() {
            let mut mutated = body(f).to_vec();
            let i = at % mutated.len();
            mutated[i] = byte;
            check_canonical(f, &mutated)?;
        }
    }
}
