//! Test fixtures: the generated scenario worlds as the table detection
//! sees — every source relabelled to the canonical schema (the gold
//! correspondences stand in for the matcher), tagged with `sourceID`, and
//! outer-unioned.

use hummer_datagen::scenarios::{
    cd_shopping, cleansing_service, disaster_registry, person_scale, student_rosters,
};
use hummer_datagen::GeneratedWorld;
use hummer_engine::ops::{outer_union, rename_column};
use hummer_engine::{Column, ColumnType, Table, Value};

pub(crate) fn gold_union(world: &GeneratedWorld) -> Table {
    let sources: Vec<Table> = world
        .sources
        .iter()
        .zip(&world.gold_renames)
        .map(|(source, renames)| {
            let mut t = source.table.clone();
            for (label, canonical) in renames {
                if label != canonical {
                    t = rename_column(&t, label, canonical).unwrap();
                }
            }
            let name = t.name().to_string();
            t.add_column(Column::new("sourceID", ColumnType::Text), |_, _| {
                Value::text(name.clone())
            })
            .unwrap();
            t
        })
        .collect();
    outer_union(&sources.iter().collect::<Vec<_>>(), "Integrated").unwrap()
}

/// The four demo scenarios and the two-source scale world, a few hundred
/// union rows each.
pub(crate) fn worlds() -> Vec<(&'static str, Table)> {
    vec![
        ("cd_shopping", gold_union(&cd_shopping(100, 2005))),
        ("disaster_registry", gold_union(&disaster_registry(100, 7))),
        ("student_rosters", gold_union(&student_rosters(150, 11))),
        ("cleansing_service", gold_union(&cleansing_service(150, 13))),
        ("person_scale", gold_union(&person_scale(200, 2005))),
    ]
}

/// A table of awkward cells: lower-casing that changes the char count or
/// depends on position, renderings that differ only in case, text that
/// parses as a number (or as NaN), one rendering under two value types,
/// empty and > 64-char strings, non-BMP chars.
pub(crate) fn awkward() -> Table {
    let long = "Bartholomew Maximilian Montgomery-Featherstonehaugh of Upper Slaughter";
    let rows: Vec<Vec<Value>> = vec![
        vec!["İstanbul".into(), "ΑΣ".into(), Value::Int(5), true.into()],
        vec![
            "i̇stanbul".into(),
            "ας".into(),
            Value::Float(5.0),
            "true".into(),
        ],
        vec!["ISTANBUL".into(), "ασ".into(), "5".into(), "TRUE".into()],
        vec!["Nan".into(), "".into(), "1E1".into(), false.into()],
        vec!["nan".into(), "".into(), "1e1".into(), Value::Null],
        vec![long.into(), "😀 straße".into(), Value::Null, "x".into()],
        vec![
            long.to_uppercase().into(),
            "😀 STRASSE".into(),
            Value::Int(12),
            "x".into(),
        ],
        vec![
            long.replace('a', "e").into(),
            "ß".into(),
            Value::Float(11.5),
            Value::Null,
        ],
        vec![Value::Null, "Berlin".into(), Value::Int(5), "y".into()],
        vec!["Berlin".into(), "BERLIN".into(), Value::Int(7), "y".into()],
        vec!["berlin".into(), "berlin".into(), Value::Int(7), "Y".into()],
    ];
    let rows = rows
        .into_iter()
        .map(hummer_engine::Row::from_values)
        .collect();
    Table::from_rows("Awkward", &["Name", "Place", "Count", "Flag"], rows).unwrap()
}
