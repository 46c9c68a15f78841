//! `fleetio-model` CLI: offline checkpoint and registry tooling.
//!
//! ```text
//! fleetio-model inspect <file.ckpt>   # decode and describe one container
//! fleetio-model verify  <file.ckpt>.. # exit 1 if any container is corrupt
//! fleetio-model ls      <registry>    # list a registry directory
//! ```
//!
//! Exit codes: 0 = OK, 1 = at least one corrupt/unreadable checkpoint
//! (`verify`), 2 = usage or I/O error. CI corrupts one byte of a saved
//! checkpoint and asserts `verify` exits nonzero.

use std::process::ExitCode;

use fleetio_des::codec::{decode_container, PayloadKind};
use fleetio_model::{ModelCheckpoint, ModelRegistry, RunAnchor, TypingIndex};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("inspect") => match args.get(2) {
            Some(path) => inspect(path),
            None => usage(),
        },
        Some("verify") if args.len() > 2 => verify(&args[2..]),
        Some("ls") => match args.get(2) {
            Some(dir) => ls(dir),
            None => usage(),
        },
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fleetio-model inspect <file.ckpt>\n       fleetio-model verify <file.ckpt>...\n       fleetio-model ls <registry-dir>"
    );
    ExitCode::from(2)
}

/// Decoded view of one container, or why it failed.
enum Loaded {
    Model(Box<ModelCheckpoint>),
    Typing(TypingIndex),
    Anchor(RunAnchor),
    /// A store manifest: the payload layout belongs to `fleetio-store`,
    /// so only the container framing + CRC are verified here.
    Manifest {
        payload_len: usize,
    },
}

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
        PayloadKind::RunAnchor => {
            Loaded::Anchor(RunAnchor::decode(payload).map_err(|e| e.to_string())?)
        }
        PayloadKind::StoreManifest => Loaded::Manifest {
            payload_len: payload.len(),
        },
    };
    Ok((loaded, bytes.len()))
}

fn describe(path: &str, loaded: &Loaded, file_len: usize) {
    match loaded {
        Loaded::Model(ckpt) => {
            let t = &ckpt.trainer;
            let actor_params: usize = t
                .policy
                .actor
                .layers
                .iter()
                .map(|l| l.w.len() + l.b.len())
                .sum();
            let critic_params: usize = t
                .policy
                .critic
                .layers
                .iter()
                .map(|l| l.w.len() + l.b.len())
                .sum();
            println!("{path}: model-checkpoint ({file_len} bytes)");
            println!("  tag          {}", ckpt.meta.tag);
            println!("  seed         {}", ckpt.meta.seed);
            println!("  updates      {}", t.updates);
            println!(
                "  actor        {} layers, {actor_params} params",
                t.policy.actor.layers.len()
            );
            println!(
                "  critic       {} layers, {critic_params} params",
                t.policy.critic.layers.len()
            );
            println!("  action dims  {:?}", t.policy.action_dims);
            println!(
                "  obs dim      {} (normalizer count {})",
                t.normalizer.mean.len(),
                t.normalizer.count
            );
            println!(
                "  hyper-params lr {} critic_lr {} gamma {} lambda {} clip {} epochs {} minibatch {} entropy {} grad_clip {}",
                t.cfg.lr,
                t.cfg.critic_lr,
                t.cfg.gamma,
                t.cfg.lambda,
                t.cfg.clip,
                t.cfg.epochs,
                t.cfg.minibatch,
                t.cfg.entropy_coef,
                t.cfg.max_grad_norm
            );
        }
        Loaded::Typing(idx) => {
            println!("{path}: typing-index ({file_len} bytes)");
            println!("  features     {}", idx.scaler_mean.len());
            println!("  clusters     {}", idx.centroids.len());
            println!("  tags         {}", idx.cluster_tags.join(", "));
            println!("  unknown_dist {}", idx.unknown_distance);
        }
        Loaded::Anchor(a) => {
            println!("{path}: run-anchor ({file_len} bytes)");
            println!("  window       {}", a.window);
            println!("  at           {} ns", a.at_ns);
            println!("  events       {}", a.event_count);
            println!("  stream_fp    {:#018x}", a.stream_fingerprint);
            println!("  spec_fp      {:#010x}", a.spec_fingerprint);
            println!("  seed         {}", a.seed);
            if a.model_tag.is_empty() {
                println!("  model_tag    (none)");
            } else {
                println!("  model_tag    {}", a.model_tag);
            }
        }
        Loaded::Manifest { payload_len } => {
            println!("{path}: store-manifest ({file_len} bytes)");
            println!("  payload      {payload_len} bytes (CRC OK)");
            println!("  use `fleetio-store` to query this run");
        }
    }
}

fn inspect(path: &str) -> ExitCode {
    match load(path) {
        Ok((loaded, len)) => {
            describe(path, &loaded, len);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetio-model: {path}: {e}");
            ExitCode::from(1)
        }
    }
}

fn verify(paths: &[String]) -> ExitCode {
    let mut bad = 0u32;
    for path in paths {
        match load(path) {
            Ok((loaded, _)) => {
                let what = match loaded {
                    Loaded::Model(ckpt) => format!("model-checkpoint tag={}", ckpt.meta.tag),
                    Loaded::Typing(_) => "typing-index".to_string(),
                    Loaded::Anchor(a) => format!("run-anchor window={}", a.window),
                    Loaded::Manifest { .. } => "store-manifest".to_string(),
                };
                println!("{path}: OK ({what})");
            }
            Err(e) => {
                println!("{path}: CORRUPT ({e})");
                bad += 1;
            }
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn ls(dir: &str) -> ExitCode {
    let registry = match ModelRegistry::open(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleetio-model: {e}");
            return ExitCode::from(2);
        }
    };
    let paths = match registry.ls() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fleetio-model: {e}");
            return ExitCode::from(2);
        }
    };
    if paths.is_empty() {
        println!("{dir}: empty registry");
        return ExitCode::SUCCESS;
    }
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string();
        match load(&path.to_string_lossy()) {
            Ok((Loaded::Model(ckpt), len)) => println!(
                "  {name:<28} model  tag={} seed={} updates={} ({len} bytes)",
                ckpt.meta.tag, ckpt.meta.seed, ckpt.trainer.updates
            ),
            Ok((Loaded::Typing(idx), len)) => println!(
                "  {name:<28} typing {} clusters -> [{}] ({len} bytes)",
                idx.centroids.len(),
                idx.cluster_tags.join(", ")
            ),
            Ok((Loaded::Anchor(a), len)) => println!(
                "  {name:<28} anchor window={} events={} ({len} bytes)",
                a.window, a.event_count
            ),
            Ok((Loaded::Manifest { .. }, len)) => {
                println!("  {name:<28} store-manifest ({len} bytes)")
            }
            Err(e) => println!("  {name:<28} CORRUPT ({e})"),
        }
    }
    ExitCode::SUCCESS
}
