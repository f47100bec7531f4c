//! The paper's claims, read from the experiments' `Report`s: each test
//! runs an experiment in process and reads its cells by column name and
//! row, as numbers where the report shows numbers. The byte pins in
//! `reproduction.rs` say a report changed; these say it is wrong.

use edp_bench::exp::EXPERIMENTS;
use edp_bench::{Block, Cell, Report, Table};

/// The report `edp_exp <name>` prints.
fn report(name: &str) -> Report {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(registered, _)| *registered == name)
        .unwrap_or_else(|| panic!("no experiment `{name}`"));
    run()
}

/// The report's only table.
fn only_table(report: &Report) -> &Table {
    let tables: Vec<&Table> = (report.blocks.iter())
        .filter_map(|block| match block {
            Block::Table(table) => Some(table),
            _ => None,
        })
        .collect();
    assert_eq!(tables.len(), 1, "expected one table");
    tables[0]
}

/// Column `name` of `table`, one cell per row.
fn column<'t>(table: &'t Table, name: &str) -> Vec<&'t Cell> {
    let i = (table.columns.iter())
        .position(|(column, _)| *column == name)
        .unwrap_or_else(|| panic!("{}: no column `{name}`", table.title));
    table.rows.iter().map(|row| &row[i]).collect()
}

fn num(cell: &Cell) -> f64 {
    match cell {
        Cell::Num(x, _, _) => *x,
        Cell::Text(text) => panic!("`{text}` is not a number"),
    }
}

fn text(cell: &Cell) -> &str {
    match cell {
        Cell::Text(text) => text,
        Cell::Num(..) => panic!("{cell} is not text"),
    }
}

/// Table 1: every one of the 13 event kinds fires, and a baseline PISA
/// device exposes only the three packet events.
#[test]
fn table1_all_13_kinds_fire_and_baseline_sees_only_packet_events() {
    let report = report("table1");
    let table = only_table(&report);
    let events = column(table, "event");
    let observed = column(table, "observed");
    let baseline = column(table, "baseline PISA");
    assert_eq!(events.len(), 13);
    for (event, count) in events.iter().zip(&observed) {
        assert!(num(count) > 0.0, "{event} never fired");
    }
    let exposed: Vec<&str> = (events.iter().zip(&baseline))
        .filter(|(_, yes)| text(yes) == "yes")
        .map(|(event, _)| text(event))
        .collect();
    assert_eq!(
        exposed,
        ["Ingress Packet", "Egress Packet", "Recirculated Packet"]
    );
}

/// Table 3: event support costs at most 2 % of the device in every
/// resource class, and Block RAM is the largest cost.
#[test]
fn table3_every_class_is_at_most_2_percent_and_bram_dominates() {
    let report = report("table3");
    let table = only_table(&report);
    let resources = column(table, "FPGA resource");
    let costs: Vec<f64> = column(table, "this model").into_iter().map(num).collect();
    for (resource, cost) in resources.iter().zip(&costs) {
        assert!(*cost <= 2.0, "{resource}: {cost} % of the device");
    }
    let largest = (0..costs.len())
        .max_by(|&a, &b| costs[a].total_cmp(&costs[b]))
        .expect("Table 3 has rows");
    assert_eq!(text(resources[largest]), "Block RAM", "costs: {costs:?}");
}

/// §6: at 95 % packet load, emulated events are free while they fit in
/// the 5 % idle slots, and above that each one costs about one slot:
/// the capacity lost is `100 · max(0, r − 5) / 95` % at r events per
/// 100 cycles.
#[test]
fn emulation_is_free_in_idle_slots_and_costs_a_slot_per_event_above() {
    let report = report("exp_emulation");
    let table = only_table(&report);
    let rates = column(table, "events/100cyc");
    let costs = column(table, "pkt capacity cost");
    assert_eq!(rates.len(), 7);
    for (rate, cost) in rates.iter().zip(&costs) {
        let (r, cost) = (num(rate), num(cost));
        let slots = 100.0 * (r - 5.0).max(0.0) / 95.0;
        assert!(
            (cost - slots).abs() <= 0.1,
            "{r} events/100 cycles: capacity cost {cost:.2} %, one slot per event past the idle 5 % is {slots:.2} %"
        );
    }
}
