//! Integration test of the page format's back compatibility: legacy v1
//! pages written by earlier builds decode under the current store stack.

use tpcp_storage::{codec, DiskStore, UnitData, UnitStore};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tpcp_zero_copy_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Back compatibility: pages written in the legacy v1 layout (as by
/// builds before codec v2) must decode through the whole store stack.
#[test]
fn v1_pages_decode_through_the_store_stack() {
    use tpcp_linalg::Mat;
    use tpcp_schedule::UnitId;

    let root = tmp("v1_pages");
    std::fs::create_dir_all(&root).unwrap();
    let unit = UnitData {
        unit: UnitId::new(1, 4),
        factor: Mat::from_rows(&[&[1.5, -2.0], &[0.25, 8.0]]),
        sub_factors: vec![(3, Mat::from_rows(&[&[9.0], &[-1.0]]))],
    };
    // Lay the v1 page down exactly where the store expects its file.
    let store = DiskStore::open(&root).unwrap();
    std::fs::write(store.unit_path(unit.unit), codec::encode_v1(&unit)).unwrap();
    drop(store);

    let mut s = DiskStore::open(&root).unwrap();
    assert!(s.contains(unit.unit));
    assert_eq!(s.read(unit.unit).unwrap(), unit);
    // An overwrite through the current store upgrades the page to v2.
    s.write(&unit).unwrap();
    let page = std::fs::read(s.unit_path(unit.unit)).unwrap();
    assert_eq!(u32::from_le_bytes(page[8..12].try_into().unwrap()), 2);
    assert_eq!(s.read(unit.unit).unwrap(), unit);
    let _ = std::fs::remove_dir_all(&root);
}
