//! `fleetio model`: offline checkpoint and registry tooling.
//!
//! `inspect` decodes and describes one container, `verify` exits 1 if
//! any container is corrupt (CI flips one byte of a saved checkpoint and
//! asserts it does), `ls` lists a registry directory.

use std::fmt::Write as _;

use fleetio_des::codec::{decode_container, PayloadKind};
use fleetio_model::{ModelCheckpoint, ModelRegistry, TypingIndex};

use crate::args::Args;
use crate::{io, Output, Verb, VerbResult};

pub static VERBS: [Verb; 3] = [
    Verb::new("model", "inspect", "<file.ckpt>", inspect),
    Verb::new("model", "verify", "<file.ckpt>...", verify),
    Verb::new("model", "ls", "<registry-dir>", ls),
];

/// Decoded view of one container.
enum Loaded {
    Model(Box<ModelCheckpoint>),
    Typing(TypingIndex),
    /// A run-store file (a manifest, or an older store's anchor): the
    /// payload layout belongs to `fleetio-store`, so only the container
    /// framing + CRC are verified here.
    Store {
        kind: PayloadKind,
        payload_len: usize,
    },
}

/// Loads one container, with its file length, or says why it failed.
fn load(path: &str) -> Result<(Loaded, usize), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read: {e}"))?;
    let (kind, payload) = decode_container(&bytes).map_err(|e| e.to_string())?;
    let loaded = match kind {
        PayloadKind::ModelCheckpoint => Loaded::Model(Box::new(
            ModelCheckpoint::decode(payload).map_err(|e| e.to_string())?,
        )),
        PayloadKind::TypingIndex => {
            Loaded::Typing(TypingIndex::decode(payload).map_err(|e| e.to_string())?)
        }
        PayloadKind::RunAnchor | PayloadKind::StoreManifest => Loaded::Store {
            kind,
            payload_len: payload.len(),
        },
    };
    Ok((loaded, bytes.len()))
}

fn describe(path: &str, loaded: &Loaded, file_len: usize) -> String {
    match loaded {
        Loaded::Model(ckpt) => {
            let t = &ckpt.trainer;
            let params = |layers: &[fleetio_ml::DenseState]| -> usize {
                layers.iter().map(|l| l.w.len() + l.b.len()).sum()
            };
            let c = &t.cfg;
            format!(
                "{path}: model-checkpoint ({file_len} bytes)\n  \
                 tag          {}\n  \
                 seed         {}\n  \
                 updates      {}\n  \
                 actor        {} layers, {} params\n  \
                 critic       {} layers, {} params\n  \
                 action dims  {:?}\n  \
                 obs dim      {} (normalizer count {})\n  \
                 hyper-params lr {} critic_lr {} gamma {} lambda {} clip {} epochs {} minibatch {} \
                 entropy {} grad_clip {}\n",
                ckpt.meta.tag,
                ckpt.meta.seed,
                t.updates,
                t.policy.actor.layers.len(),
                params(&t.policy.actor.layers),
                t.policy.critic.layers.len(),
                params(&t.policy.critic.layers),
                t.policy.action_dims,
                t.normalizer.mean.len(),
                t.normalizer.count,
                c.lr,
                c.critic_lr,
                c.gamma,
                c.lambda,
                c.clip,
                c.epochs,
                c.minibatch,
                c.entropy_coef,
                c.max_grad_norm
            )
        }
        Loaded::Typing(idx) => format!(
            "{path}: typing-index ({file_len} bytes)\n  \
             features     {}\n  \
             clusters     {}\n  \
             tags         {}\n  \
             unknown_dist {}\n",
            idx.scaler_mean.len(),
            idx.centroids.len(),
            idx.cluster_tags.join(", "),
            idx.unknown_distance
        ),
        // The hint's wording is pinned by the CLI goldens.
        Loaded::Store { kind, payload_len } => format!(
            "{path}: {} ({file_len} bytes)\n  \
             payload      {payload_len} bytes (CRC OK)\n  \
             use `fleetio store` to query this run\n",
            kind.name()
        ),
    }
}

fn inspect(args: &Args) -> VerbResult {
    let path = &args.positionals[0];
    Ok(match load(path) {
        Ok((loaded, len)) => Output::ok(describe(path, &loaded, len)),
        Err(e) => Output {
            code: 1,
            stdout: String::new(),
            stderr: format!("fleetio: {path}: {e}\n"),
        },
    })
}

fn verify(args: &Args) -> VerbResult {
    let mut out = String::new();
    let mut bad = 0u32;
    for path in &args.positionals {
        let _ = match load(path) {
            Ok((loaded, _)) => {
                let what = match loaded {
                    Loaded::Model(ckpt) => format!("model-checkpoint tag={}", ckpt.meta.tag),
                    Loaded::Typing(_) => "typing-index".to_string(),
                    Loaded::Store { kind, .. } => kind.name().to_string(),
                };
                writeln!(out, "{path}: OK ({what})")
            }
            Err(e) => {
                bad += 1;
                writeln!(out, "{path}: CORRUPT ({e})")
            }
        };
    }
    Ok(Output::exit(if bad == 0 { 0 } else { 1 }, out))
}

fn ls(args: &Args) -> VerbResult {
    let dir = &args.positionals[0];
    let paths = ModelRegistry::open(dir).ls().map_err(io)?;
    if paths.is_empty() {
        return Ok(Output::ok(format!("{dir}: empty registry\n")));
    }
    let mut out = String::new();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let _ = match load(&path.to_string_lossy()) {
            Ok((Loaded::Model(ckpt), len)) => writeln!(
                out,
                "  {name:<28} model  tag={} seed={} updates={} ({len} bytes)",
                ckpt.meta.tag, ckpt.meta.seed, ckpt.trainer.updates
            ),
            Ok((Loaded::Typing(idx), len)) => writeln!(
                out,
                "  {name:<28} typing {} clusters -> [{}] ({len} bytes)",
                idx.centroids.len(),
                idx.cluster_tags.join(", ")
            ),
            Ok((Loaded::Store { kind, .. }, len)) => {
                writeln!(out, "  {name:<28} {} ({len} bytes)", kind.name())
            }
            Err(e) => writeln!(out, "  {name:<28} CORRUPT ({e})"),
        };
    }
    Ok(Output::ok(out))
}
