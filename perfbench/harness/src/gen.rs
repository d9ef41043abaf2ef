//! The input generator: seed in, one workload's input files out.
//!
//! Stream workloads get
//!
//! * `base.csv` — the table bulk-loaded at set-up;
//! * `ops.log` — the op stream in `anmat stream --ops` format (`+,cells…`
//!   inserts, `-,rowid` deletes, `~,rowid,cells…` updates);
//! * `marks.txt` — `<op index> compact|read` lines: before that op the
//!   harness compacts (row ids after a `compact` mark are already
//!   renumbered, so the log is valid however batches are split) or takes
//!   a snapshot and a drift report as a reader;
//! * `final.csv` and `labels.txt` — the live rows the stream must end
//!   with, in slot order, and the slots among them that carry an injected
//!   error;
//! * `rules.json` — the dataset's fixed rules, a copy of its file under
//!   `perfbench/rules/`, so a change to discovery cannot change stream
//!   inputs.
//!
//! `audit` gets three training CSVs (one per `anmat_datagen` generator),
//! the fresh request CSVs back to back in `requests.csv` with
//! `requests.idx` (`<dataset> <start> <end>` byte ranges) and, per
//! request, the injected-error rows in `labels.txt`.

use crate::{Spec, Workload};
use anmat_datagen::{names, phone, zipcity, GenConfig};
use anmat_table::csv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Share of generated rows carrying an injected error.
const ERROR_RATE: f64 = 0.01;

/// Write `workload`'s inputs, sized by `spec`, for `seed` and a run of
/// `seconds` into `out`.
pub fn generate(
    workload: Workload,
    spec: &Spec,
    seed: u64,
    seconds: u32,
    out: &Path,
) -> io::Result<()> {
    std::fs::create_dir_all(out)?;
    match workload {
        Workload::Audit => audit(spec, seed, seconds, out),
        Workload::Append | Workload::AppendX2 => {
            stream(spec, seed, seconds, Shape::Mixed, Data::Zip, out)
        }
        Workload::Churn => stream(spec, seed, seconds, Shape::Mixed, Data::Phone, out),
        Workload::Expire => stream(spec, seed, seconds, Shape::Window, Data::Zip, out),
    }
}

#[derive(Clone, Copy)]
enum Data {
    Zip,
    Phone,
}

impl Data {
    fn header(self) -> &'static str {
        match self {
            Data::Zip => "zip,city,state",
            Data::Phone => "phone,state",
        }
    }

    /// The fixed rules the stream engine loads for this dataset.
    fn rules(self) -> &'static str {
        match self {
            Data::Zip => include_str!("../../rules/zip.json"),
            Data::Phone => include_str!("../../rules/phone.json"),
        }
    }
}

#[derive(Clone, Copy)]
enum Shape {
    /// Random inserts/updates/deletes in the spec's mix.
    Mixed,
    /// Insert, then delete the oldest live row: a fixed-size window.
    Window,
}

/// One generated row: its CSV fields and whether an error was injected.
struct Row {
    csv: String,
    error: bool,
}

struct RowMaker {
    rng: StdRng,
    data: Data,
    /// Rows made so far; phone numbers are a bijection of it, so every
    /// phone is new.
    made: u64,
}

impl RowMaker {
    fn next(&mut self) -> Row {
        self.made += 1;
        let error = self.rng.random_bool(ERROR_RATE);
        let csv = match self.data {
            Data::Zip => {
                let (prefix, city, state) =
                    zipcity::ZIP_PREFIXES[self.rng.random_range(0..zipcity::ZIP_PREFIXES.len())];
                let mut zip = prefix.to_string();
                while zip.len() < 5 {
                    zip.push(char::from(b'0' + self.rng.random_range(0..10u8)));
                }
                let city = if error {
                    corrupt(city, &mut self.rng)
                } else {
                    city.to_string()
                };
                format!("{zip},{city},{state}")
            }
            Data::Phone => {
                let (area, state) =
                    phone::AREA_CODES[self.rng.random_range(0..phone::AREA_CODES.len())];
                // 7_654_321 is coprime to 10^7, so lines never repeat.
                let line = (self.made * 7_654_321 + 1_234_567) % 10_000_000;
                let state = if error {
                    let wrong: Vec<&str> = phone::WRONG_STATES
                        .iter()
                        .copied()
                        .filter(|s| *s != state)
                        .collect();
                    wrong[self.rng.random_range(0..wrong.len())]
                } else {
                    state
                };
                format!("{area}{line:07},{state}")
            }
        };
        Row { csv, error }
    }
}

/// Truncate or transpose a city name (the paper's city error types).
fn corrupt(city: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = city.chars().collect();
    if rng.random_bool(0.5) {
        let i = rng.random_range(0..chars.len() - 1);
        chars.swap(i, i + 1);
        let swapped: String = chars.iter().collect();
        if swapped != city {
            return swapped;
        }
    }
    let keep = rng.random_range(1..chars.len());
    chars[..keep].iter().collect()
}

/// The simulated table: slot numbering exactly as the engine assigns it.
struct Sim {
    slots: Vec<Option<Row>>,
    /// Live slots, for uniform random picks.
    live: Vec<usize>,
    /// Index of each slot in `live` (`usize::MAX` once dead).
    pos: Vec<usize>,
    /// Live slots in insertion order (the window's expiry queue).
    fifo: VecDeque<usize>,
}

impl Sim {
    fn insert(&mut self, row: Row) -> usize {
        let slot = self.slots.len();
        self.slots.push(Some(row));
        self.pos.push(self.live.len());
        self.live.push(slot);
        self.fifo.push_back(slot);
        slot
    }

    fn delete(&mut self, slot: usize) {
        self.slots[slot] = None;
        let at = self.pos[slot];
        self.pos[slot] = usize::MAX;
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.pos[moved] = at;
        }
    }

    /// Drop dead slots and renumber the live ones densely, in order —
    /// what `Table::compact` does.
    fn compact(&mut self) {
        let mut new_id = vec![usize::MAX; self.slots.len()];
        let mut slots = Vec::with_capacity(self.live.len());
        for (old, row) in std::mem::take(&mut self.slots).into_iter().enumerate() {
            if let Some(row) = row {
                new_id[old] = slots.len();
                slots.push(Some(row));
            }
        }
        self.slots = slots;
        self.live = (0..self.slots.len()).collect();
        self.pos = (0..self.slots.len()).collect();
        self.fifo = self
            .fifo
            .iter()
            .map(|&s| new_id[s])
            .filter(|&s| s != usize::MAX)
            .collect();
    }
}

fn stream(
    spec: &Spec,
    seed: u64,
    seconds: u32,
    shape: Shape,
    data: Data,
    out: &Path,
) -> io::Result<()> {
    let header = data.header();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut maker = RowMaker {
        rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
        data,
        made: 0,
    };
    let mut sim = Sim {
        slots: Vec::new(),
        live: Vec::new(),
        pos: Vec::new(),
        fifo: VecDeque::new(),
    };
    let mut base = format!("{header}\n");
    for _ in 0..spec.base_rows {
        let row = maker.next();
        base.push_str(&row.csv);
        base.push('\n');
        sim.insert(row);
    }

    let total = spec.units(seconds);
    let mut ops = String::with_capacity(total * 32);
    let mut marks = String::new();
    for i in 0..total {
        if spec.compact_every > 0 && i > 0 {
            if i % spec.compact_every == 0 {
                sim.compact();
                writeln!(marks, "{i} compact").expect("write to String");
            } else if i % spec.compact_every == spec.compact_every / 2 {
                writeln!(marks, "{i} read").expect("write to String");
            }
        }
        match shape {
            Shape::Window => {
                // Ops alternate: insert a row, then expire the oldest.
                if i % 2 == 0 {
                    let row = maker.next();
                    writeln!(ops, "+,{}", row.csv).expect("write to String");
                    sim.insert(row);
                } else {
                    let oldest = sim.fifo.pop_front().expect("window never empties");
                    writeln!(ops, "-,{oldest}").expect("write to String");
                    sim.delete(oldest);
                }
            }
            Shape::Mixed => {
                let r: f64 = rng.random_range(0.0..1.0);
                if r < spec.mix.insert || sim.live.is_empty() {
                    let row = maker.next();
                    writeln!(ops, "+,{}", row.csv).expect("write to String");
                    sim.insert(row);
                } else {
                    let slot = sim.live[rng.random_range(0..sim.live.len())];
                    if r < spec.mix.insert + spec.mix.update {
                        let row = maker.next();
                        writeln!(ops, "~,{slot},{}", row.csv).expect("write to String");
                        sim.slots[slot] = Some(row);
                    } else {
                        writeln!(ops, "-,{slot}").expect("write to String");
                        sim.delete(slot);
                    }
                }
            }
        }
    }

    let mut final_csv = format!("{header}\n");
    let mut labels = String::new();
    for (slot, row) in sim.slots.iter().enumerate() {
        if let Some(row) = row {
            final_csv.push_str(&row.csv);
            final_csv.push('\n');
            if row.error {
                writeln!(labels, "{slot}").expect("write to String");
            }
        }
    }
    std::fs::write(out.join("base.csv"), base)?;
    std::fs::write(out.join("ops.log"), ops)?;
    std::fs::write(out.join("marks.txt"), marks)?;
    std::fs::write(out.join("final.csv"), final_csv)?;
    std::fs::write(out.join("labels.txt"), labels)?;
    std::fs::write(out.join("rules.json"), data.rules())
}

/// Rows in each fresh audit CSV.
pub const REQUEST_ROWS: usize = 100;

/// The audit datasets, in request rotation order.
pub const AUDIT_DATASETS: [&str; 3] = ["zip", "phone", "name"];

fn audit_dataset(which: usize, rows: usize, seed: u64) -> anmat_datagen::Dataset {
    let config = GenConfig {
        rows,
        seed,
        error_rate: 2.0 * ERROR_RATE,
    };
    match which {
        0 => zipcity::generate(&config, zipcity::ZipTarget::City),
        1 => phone::generate(&config),
        _ => names::generate(&config),
    }
}

fn audit(spec: &Spec, seed: u64, seconds: u32, out: &Path) -> io::Result<()> {
    for (d, name) in AUDIT_DATASETS.iter().enumerate() {
        let train = audit_dataset(
            d,
            spec.base_rows,
            seed.wrapping_mul(31).wrapping_add(d as u64),
        );
        std::fs::write(
            out.join(format!("train_{name}.csv")),
            csv::write_str(&train.table),
        )?;
    }
    let requests = spec.units(seconds);
    let mut body = String::new();
    let mut index = String::new();
    let mut labels = String::new();
    for q in 0..requests {
        let d = q % AUDIT_DATASETS.len();
        let fresh = audit_dataset(d, REQUEST_ROWS, seed ^ ((0xA0D1_7000 + q as u64) << 8));
        let start = body.len();
        body.push_str(&csv::write_str(&fresh.table));
        writeln!(index, "{} {start} {}", AUDIT_DATASETS[d], body.len()).expect("write to String");
        let rows: Vec<String> = fresh.errors.iter().map(|e| e.row.to_string()).collect();
        writeln!(labels, "{}", rows.join(" ")).expect("write to String");
    }
    std::fs::write(out.join("requests.csv"), body)?;
    std::fs::write(out.join("requests.idx"), index)?;
    std::fs::write(out.join("labels.txt"), labels)
}
