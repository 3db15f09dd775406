//! Seeded inputs. The program under test sees only these files.

use crate::spec::{Input, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use tpcp_cp::CpModel;
use tpcp_partition::FileTensorSource;
use tpcp_tensor::random_factor;
use twopcp::{Model, ModelMeta, MODEL_EXT};

/// Noise amplitude of every generated tensor.
const NOISE: f64 = 0.05;

pub fn input_path(dir: &Path, spec: &Spec) -> PathBuf {
    match spec.input {
        Input::Tensor => dir.join("input.tensor"),
        Input::Model => dir.join(format!("input.{MODEL_EXT}")),
    }
}

/// Generates the workload's input file from `seed` and makes it durable,
/// so that no write-back of it runs under a timed rep.
pub fn generate(spec: &Spec, seed: u64, dir: &Path) -> Result<(), String> {
    let path = input_path(dir, spec);
    match spec.input {
        Input::Tensor => {
            let t = tpcp_datasets::low_rank_dense(spec.dims, spec.rank, NOISE, seed);
            FileTensorSource::write_dense(&path, &t).map_err(|e| e.to_string())?;
            std::fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(|e| e.to_string())
        }
        Input::Model => {
            let mut rng = StdRng::seed_from_u64(seed);
            let factors = spec
                .dims
                .iter()
                .map(|&d| random_factor(d, spec.rank, &mut rng))
                .collect();
            let cp = CpModel::new(vec![1.0; spec.rank], factors).map_err(|e| e.to_string())?;
            let meta = ModelMeta {
                name: spec.name.into(),
                rank: spec.rank,
                dims: spec.dims.to_vec(),
                seed,
                fit: 1.0,
                schedule: "HO".into(),
                parts: vec![1],
                compress: None,
            };
            // `Model::save` syncs the file itself.
            Model::new(meta, cp)
                .and_then(|m| m.save(&path))
                .map_err(|e| e.to_string())
        }
    }
}
