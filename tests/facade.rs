//! Smoke test for the workspace surface itself: every module the `hummer`
//! facade re-exports is reachable under its documented name, and the
//! `table!` macro works through the facade path. Guards against a manifest
//! or re-export regression silently dropping a crate from the public API.

use hummer::engine::table;

#[test]
fn engine_module_and_table_macro() {
    let t = table! {
        "People" => ["Name", "Age"];
        ["Ada Lovelace", 36],
        ["Alan Turing", 41],
    };
    assert_eq!(t.len(), 2);
    assert!(t.schema().contains("Name"));
    let u = hummer::engine::ops::outer_union(&[&t, &t], "U").unwrap();
    assert_eq!(u.len(), 4);
    let v: hummer::engine::Value = hummer::engine::Value::Int(7);
    assert_eq!(v.to_string(), "7");
}

#[test]
fn textsim_module() {
    assert_eq!(hummer::textsim::levenshtein("kitten", "sitting"), 3);
    assert!(hummer::textsim::jaro_winkler("martha", "marhta") > 0.9);
    assert_eq!(
        hummer::textsim::word_tokens("Abbey Road!"),
        vec!["abbey", "road"]
    );
}

#[test]
fn matching_module() {
    let a = table! {
        "A" => ["Name", "City"];
        ["John Smith", "Berlin"],
        ["Mary Jones", "Hamburg"],
    };
    let b = table! {
        "B" => ["FullName", "Town"];
        ["John Smith", "Berlin"],
        ["Mary Jones", "Hamburg"],
    };
    let cfg = hummer::matching::MatcherConfig::default();
    let m = hummer::matching::match_tables(&a, &b, &cfg);
    assert_eq!(m.left_table, "A");
    assert_eq!(m.right_table, "B");
    let renames = m.rename_map();
    assert!(renames.is_empty() || renames.contains_key("FullName") || renames.contains_key("Town"));
}

#[test]
fn dupdetect_module() {
    let t = table! {
        "T" => ["Name", "City"];
        ["John Smith", "Berlin"],
        ["Jon Smith", "Berlin"],
        ["Mary Jones", "Hamburg"],
    };
    // Narrow 2-column schemas carry little evidence mass; lower the bar
    // below the wide-schema default (same knob the pipeline tests use).
    let cfg = hummer::dupdetect::DetectorConfig {
        threshold: 0.7,
        unsure_threshold: 0.55,
        ..Default::default()
    };
    let r = hummer::dupdetect::detect_duplicates(
        &t,
        &cfg,
        hummer::dupdetect::Parallelism::sequential(),
    )
    .unwrap();
    assert_eq!(r.object_count(), 2);
}

#[test]
fn fusion_module() {
    let t = table! {
        "T" => ["Name", "Age"];
        ["John Smith", 24],
        ["John Smith", 25],
    };
    let registry = hummer::fusion::FunctionRegistry::standard();
    let spec = hummer::fusion::FusionSpec::by_key(vec!["Name"])
        .resolve("Age", hummer::fusion::ResolutionSpec::named("max"));
    let fused = hummer::fusion::fuse(&t, &spec, &registry).unwrap();
    assert_eq!(fused.table.len(), 1);
}

#[test]
fn query_module() {
    let q = hummer::query::parse("SELECT Name, RESOLVE(Age, max) FUSE FROM A, B FUSE BY (Name)")
        .unwrap();
    assert_eq!(q.fuse_by, Some(vec!["Name".to_string()]));
}

#[test]
fn datagen_module() {
    let world = hummer::datagen::generate(&hummer::datagen::DirtyConfig::two_sources(
        hummer::datagen::EntityKind::Person,
        10,
        42,
    ));
    assert_eq!(world.clean.len(), 10);
    assert_eq!(world.sources.len(), 2);
}

#[test]
fn core_module() {
    let mut h = hummer::core::Hummer::new();
    h.repository_mut()
        .register_table(
            "People",
            table! {
                "People" => ["Name", "Age"];
                ["John Smith", 24],
            },
        )
        .unwrap();
    assert_eq!(h.repository().len(), 1);
    assert!(h.repository().get("People").is_ok());
}

#[test]
fn delta_module() {
    let t = table! {
        "People" => ["Name", "Age"];
        ["John Smith", 24],
    };
    let delta = hummer::delta::TableDelta::new("People").insert(vec![
        hummer::engine::Value::text("Mary Jones"),
        hummer::engine::Value::Int(31),
    ]);
    let (after, mapping) = delta.apply(&t).unwrap();
    assert_eq!(after.len(), 2);
    assert_eq!(mapping.old_len(), 1);
}

#[test]
fn obs_module() {
    let tracer = hummer::obs::Tracer::with_capacity(16);
    let trace_id = {
        let root = tracer.trace("query");
        drop(root.child("detect"));
        root.trace_id().unwrap()
    };
    let tree = tracer.trace_tree(trace_id).unwrap();
    assert_eq!(tree.roots[0].record.name, "query");
    assert_eq!(tree.roots[0].children[0].record.name, "detect");
}

#[test]
fn store_module() {
    let dir = hummer::store::scratch::dir("facade");
    let (_store, recovery) =
        hummer::store::CatalogStore::open(&dir, hummer::store::StoreOptions::default()).unwrap();
    assert!(recovery.tables.is_empty());
    assert_eq!(recovery.last_version, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn server_module() {
    let s = hummer::server::FusionService::new(hummer::server::ServiceConfig::narrow_schema());
    s.put_table("EE_Student", "Name,Age\nAlice Smith,22\nBob Jones,24\n")
        .unwrap();
    s.put_table(
        "CS_Students",
        "Name,Semester\nAlice Smith,5\nDora Klein,1\n",
    )
    .unwrap();
    let r = s
        .query(
            "SELECT Name FUSE FROM EE_Student, CS_Students FUSE BY (Name)",
            &hummer::obs::Span::noop(),
        )
        .unwrap();
    assert_eq!(r.cache_hit, Some(false));
    assert_eq!(r.output.table.len(), 3);
}
