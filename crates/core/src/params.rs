//! Parameter-file parsing.
//!
//! The paper's prototype is driven by "a simple parameter file ... used
//! to specify all the options and techniques that should be used in each
//! round, such as the type and number of bits per hash, the strategy for
//! verifying candidate hashes through individual or group hashes or for
//! salvaging failed candidates". This module parses the same kind of
//! file into a [`ProtocolConfig`]:
//!
//! ```text
//! # msync parameters
//! start_block = 32768
//! min_block_global = 64
//! min_block_cont = 16
//! global_extra_bits = 8
//! cont_bits = 4
//! use_continuation = true
//! use_decomposable = true
//! skip_sibling_of_matched = true
//! verify = group 4x20, 1x20      # batches: group_size x bits
//! #verify = per_candidate 32
//! ```
//!
//! `max_positions_per_hash` is still parsed, validated and rendered, but
//! it is ignored by the sync; it is retained for the benchmark's
//! `core.index.*` replay and is scheduled for removal.

use crate::config::{BatchConfig, ProtocolConfig, VerifyStrategy};

/// Parse a parameter file into a configuration, starting from defaults.
pub fn parse(text: &str) -> Result<ProtocolConfig, String> {
    let mut cfg = ProtocolConfig::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
        let key = key.trim();
        let value = value.trim();
        let bad = |what: &str| format!("line {}: invalid {what}: `{value}`", lineno + 1);
        match key {
            "start_block" => cfg.start_block = value.parse().map_err(|_| bad("integer"))?,
            "min_block_global" => {
                cfg.min_block_global = value.parse().map_err(|_| bad("integer"))?
            }
            "min_block_cont" => cfg.min_block_cont = value.parse().map_err(|_| bad("integer"))?,
            "global_extra_bits" => {
                cfg.global_extra_bits = value.parse().map_err(|_| bad("integer"))?
            }
            "cont_bits" => cfg.cont_bits = value.parse().map_err(|_| bad("integer"))?,
            "max_positions_per_hash" => {
                cfg.max_positions_per_hash = value.parse().map_err(|_| bad("integer"))?
            }
            "use_continuation" => {
                cfg.use_continuation = parse_bool(value).ok_or_else(|| bad("bool"))?
            }
            "use_decomposable" => {
                cfg.use_decomposable = parse_bool(value).ok_or_else(|| bad("bool"))?
            }
            "skip_sibling_of_matched" => {
                cfg.skip_sibling_of_matched = parse_bool(value).ok_or_else(|| bad("bool"))?
            }
            "verify" => cfg.verify = parse_verify(value).ok_or_else(|| bad("verify spec"))?,
            other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
        }
    }
    cfg.validate()?;
    Ok(cfg)
}

fn parse_bool(v: &str) -> Option<bool> {
    match v {
        "true" | "yes" | "on" | "1" => Some(true),
        "false" | "no" | "off" | "0" => Some(false),
        _ => None,
    }
}

/// `per_candidate <bits>` or `group <size>x<bits>[, <size>x<bits> ...]`.
fn parse_verify(v: &str) -> Option<VerifyStrategy> {
    let v = v.trim();
    if let Some(rest) = v.strip_prefix("per_candidate") {
        let bits: u32 = rest.trim().parse().ok()?;
        return Some(VerifyStrategy::PerCandidate { bits });
    }
    let rest = v.strip_prefix("group")?;
    let mut batches = Vec::new();
    for spec in rest.split(',') {
        let spec = spec.trim();
        let (size, bits) = spec.split_once('x')?;
        batches.push(BatchConfig {
            group_size: size.trim().parse().ok()?,
            bits: bits.trim().parse().ok()?,
        });
    }
    if batches.is_empty() {
        return None;
    }
    Some(VerifyStrategy::GroupTesting { batches })
}

/// Render a configuration back into parameter-file syntax (round-trips
/// through [`parse`]).
pub fn render(cfg: &ProtocolConfig) -> String {
    let verify = match &cfg.verify {
        VerifyStrategy::PerCandidate { bits } => format!("per_candidate {bits}"),
        VerifyStrategy::GroupTesting { batches } => {
            let specs: Vec<String> =
                batches.iter().map(|b| format!("{}x{}", b.group_size, b.bits)).collect();
            format!("group {}", specs.join(", "))
        }
    };
    format!(
        "start_block = {}\nmin_block_global = {}\nmin_block_cont = {}\n\
         global_extra_bits = {}\ncont_bits = {}\nmax_positions_per_hash = {}\n\
         use_continuation = {}\nuse_decomposable = {}\n\
         skip_sibling_of_matched = {}\nverify = {}\n",
        cfg.start_block,
        cfg.min_block_global,
        cfg.min_block_cont,
        cfg.global_extra_bits,
        cfg.cont_bits,
        cfg.max_positions_per_hash,
        cfg.use_continuation,
        cfg.use_decomposable,
        cfg.skip_sibling_of_matched,
        verify,
    )
}

/// Digest of the canonical [`render`] text of a config: the config half
/// of the server hash cache's key, so two configurations never share a
/// memoized block digest.
pub fn config_digest(cfg: &ProtocolConfig) -> [u8; 16] {
    msync_hash::file_fingerprint(render(cfg).as_bytes()).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_digest_tracks_the_config() {
        let a = ProtocolConfig::default();
        let mut b = ProtocolConfig::default();
        b.start_block *= 2;
        assert_eq!(config_digest(&a), config_digest(&ProtocolConfig::default()));
        assert_ne!(config_digest(&a), config_digest(&b));

        // One knob turned at a time, and the presets: no two share a
        // digest.
        let d = ProtocolConfig::default();
        let configs = [
            d.clone(),
            ProtocolConfig { min_block_global: d.min_block_global * 2, ..d.clone() },
            ProtocolConfig { min_block_cont: d.min_block_cont * 2, ..d.clone() },
            ProtocolConfig { global_extra_bits: d.global_extra_bits + 1, ..d.clone() },
            ProtocolConfig { cont_bits: d.cont_bits + 1, ..d.clone() },
            ProtocolConfig { use_continuation: !d.use_continuation, ..d.clone() },
            ProtocolConfig { use_decomposable: !d.use_decomposable, ..d.clone() },
            ProtocolConfig { skip_sibling_of_matched: !d.skip_sibling_of_matched, ..d.clone() },
            ProtocolConfig { max_positions_per_hash: d.max_positions_per_hash + 1, ..d.clone() },
            ProtocolConfig { verify: VerifyStrategy::PerCandidate { bits: 32 }, ..d.clone() },
            ProtocolConfig::basic(128),
            ProtocolConfig::restricted(3),
        ];
        let mut digests: Vec<[u8; 16]> = configs.iter().map(config_digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), configs.len());
    }

    #[test]
    fn parse_full_file() {
        let text = "\
# comment line
start_block = 8192
min_block_global = 64   # inline comment
min_block_cont = 16
cont_bits = 3
use_continuation = yes
use_decomposable = off
verify = group 4x12, 2x14, 1x16
";
        let cfg = parse(text).unwrap();
        assert_eq!(cfg.start_block, 8192);
        assert_eq!(cfg.min_block_global, 64);
        assert_eq!(cfg.cont_bits, 3);
        assert!(cfg.use_continuation);
        assert!(!cfg.use_decomposable);
        match cfg.verify {
            VerifyStrategy::GroupTesting { ref batches } => {
                assert_eq!(batches.len(), 3);
                assert_eq!(batches[1], BatchConfig { group_size: 2, bits: 14 });
            }
            _ => panic!("wrong strategy"),
        }
    }

    #[test]
    fn parse_per_candidate() {
        let cfg = parse("verify = per_candidate 32\n").unwrap();
        assert_eq!(cfg.verify, VerifyStrategy::PerCandidate { bits: 32 });
    }

    #[test]
    fn errors_are_located() {
        assert!(parse("bogus_key = 3").unwrap_err().contains("line 1"));
        assert!(parse("\nstart_block == 3").unwrap_err().contains("line 2"));
        assert!(parse("cont_bits = many").unwrap_err().contains("line 1"));
        assert!(parse("verify = group").is_err());
        // Invalid after parse: caught by validate.
        assert!(parse("start_block = 1000").is_err());
    }

    #[test]
    fn render_roundtrip() {
        let cfg = ProtocolConfig::default();
        let text = render(&cfg);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, cfg);

        let cfg = ProtocolConfig { verify: VerifyStrategy::PerCandidate { bits: 24 }, ..cfg };
        assert_eq!(parse(&render(&cfg)).unwrap(), cfg);
    }
}
