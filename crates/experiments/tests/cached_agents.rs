//! The trained agents committed under `results/cache/` must be usable:
//! the pipeline falls back to retraining on any cached network it cannot
//! load, so a damaged file would otherwise cost minutes per figure run and
//! never fail anything.

use std::path::PathBuf;

use experiments::pipeline::agent_config;
use experiments::scale::Scale;
use rl::Mlp;
use workloads::TRAINING_SET;

fn cache_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/cache")
}

#[test]
fn every_cached_small_agent_loads_with_the_pipeline_shape() {
    let hidden = agent_config(Scale::Small).hidden;
    let mut checked = 0;
    for entry in std::fs::read_dir(cache_dir()).expect("results/cache exists") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !name.ends_with("_small.mlp") {
            continue;
        }
        let file = std::fs::File::open(&path).expect("open cached agent");
        let net = Mlp::load(std::io::BufReader::new(file))
            .unwrap_or_else(|e| panic!("{} does not load: {e}", path.display()));
        assert_eq!(net.hidden(), hidden, "{} hidden width", path.display());
        assert_eq!(net.outputs(), 16, "{} outputs (one per LLC way)", path.display());
        checked += 1;
    }
    for bench in TRAINING_SET {
        let file = format!("{}_small.mlp", bench.replace('.', "_"));
        assert!(cache_dir().join(&file).is_file(), "missing cached agent {file}");
    }
    assert_eq!(checked, TRAINING_SET.len(), "one cached agent per training benchmark");
}
