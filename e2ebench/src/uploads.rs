//! The serve workload's upload corpus, rendered by the benchmark itself.
//!
//! `netlist::formats::write_blif` and `write_verilog` cannot be used
//! here: they drop primary-output aliases (BLIF writes them as
//! `# alias` comments, Verilog writes nothing), so the front door
//! rejects most synthesized netlists they write ("output … references
//! unknown net", "net … has no driver"). The writers below rename every
//! net (`pi<i>`, `n<i>`, `po<i>`) and drive each primary output through
//! its own buffer, so every output is driven whatever the netlist's
//! aliasing.

use crate::spans::{Ctx, Tracer};
use eda_cloud_flow::{ExecContext, Recipe, Synthesizer};
use eda_cloud_ingest::fixtures;
use eda_cloud_netlist::{generators, Netlist};
use eda_cloud_serve::UploadDoc;
use eda_cloud_tech::Library;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-net names: primary inputs `pi<i>`, everything else `n<i>`.
fn net_names(netlist: &Netlist) -> Vec<String> {
    let mut names: Vec<String> = (0..netlist.net_count()).map(|i| format!("n{i}")).collect();
    for (i, &net) in netlist.primary_inputs().iter().enumerate() {
        names[net as usize] = format!("pi{i}");
    }
    names
}

/// The cells that reach a primary output, and whether each net is read
/// by one of them or is an output. Synthesized netlists can carry dead
/// cells; the front door rejects their floating nets, so dead cells,
/// and inputs only they read, are left out of the rendered document.
fn live(netlist: &Netlist) -> (Vec<bool>, Vec<bool>) {
    let mut readers = vec![0usize; netlist.net_count()];
    for cell in netlist.cells() {
        for &net in &cell.inputs {
            readers[net as usize] += 1;
        }
    }
    for (_, net) in netlist.primary_outputs() {
        readers[*net as usize] += 1;
    }
    let mut live_cells = vec![true; netlist.cell_count()];
    let mut changed = true;
    while changed {
        changed = false;
        for (i, cell) in netlist.cells().iter().enumerate() {
            if live_cells[i] && readers[cell.output as usize] == 0 {
                live_cells[i] = false;
                changed = true;
                for &net in &cell.inputs {
                    readers[net as usize] -= 1;
                }
            }
        }
    }
    (live_cells, readers.iter().map(|&r| r > 0).collect())
}

/// Live primary inputs' names, in interface order.
fn input_names(netlist: &Netlist) -> Vec<String> {
    let (_, read) = live(netlist);
    netlist
        .primary_inputs()
        .iter()
        .enumerate()
        .filter(|(_, &net)| read[net as usize])
        .map(|(i, _)| format!("pi{i}"))
        .collect()
}

/// One gate to render: `(master, instance, [(formal, actual)])`.
type Gate = (String, String, Vec<(String, String)>);

/// Every live cell plus one output buffer per primary output.
fn gates(netlist: &Netlist, lib: &Library) -> Vec<Gate> {
    let names = net_names(netlist);
    let (live_cells, _) = live(netlist);
    let mut out = Vec::with_capacity(netlist.cell_count() + netlist.primary_outputs().len());
    for (i, cell) in netlist
        .cells()
        .iter()
        .enumerate()
        .filter(|(i, _)| live_cells[*i])
    {
        let master = lib
            .cell(&cell.cell_name)
            .expect("synthesized cells come from the library");
        let mut pins: Vec<(String, String)> = master
            .input_pins()
            .zip(&cell.inputs)
            .map(|(pin, &net)| (pin.name.clone(), names[net as usize].clone()))
            .collect();
        pins.push((
            master.output_pin().name.clone(),
            names[cell.output as usize].clone(),
        ));
        out.push((cell.cell_name.clone(), format!("u{i}"), pins));
    }
    let buf = lib.cell("BUF_X1").expect("library has a buffer");
    let input = buf
        .input_pins()
        .next()
        .expect("buffer has an input")
        .name
        .clone();
    let output = buf.output_pin().name.clone();
    for (i, (_, net)) in netlist.primary_outputs().iter().enumerate() {
        out.push((
            buf.name.clone(),
            format!("ob{i}"),
            vec![
                (input.clone(), names[*net as usize].clone()),
                (output.clone(), format!("po{i}")),
            ],
        ));
    }
    out
}

/// Mapped-`.gate` BLIF with every primary output driven.
#[must_use]
pub fn render_blif(netlist: &Netlist, lib: &Library, model: &str) -> String {
    let mut s = String::new();
    let pis = input_names(netlist);
    let pos: Vec<String> = (0..netlist.primary_outputs().len())
        .map(|i| format!("po{i}"))
        .collect();
    let _ = writeln!(
        s,
        ".model {model}\n.inputs {}\n.outputs {}",
        pis.join(" "),
        pos.join(" ")
    );
    for (master, _, pins) in gates(netlist, lib) {
        let _ = write!(s, ".gate {master}");
        for (formal, actual) in pins {
            let _ = write!(s, " {formal}={actual}");
        }
        s.push('\n');
    }
    s.push_str(".end\n");
    s
}

/// Structural Verilog with every primary output driven.
#[must_use]
pub fn render_verilog(netlist: &Netlist, lib: &Library, module: &str) -> String {
    let (live_cells, _) = live(netlist);
    let mut s = format!("module {module} (\n");
    let ports: Vec<String> = input_names(netlist)
        .into_iter()
        .map(|p| format!("  input {p}"))
        .chain((0..netlist.primary_outputs().len()).map(|i| format!("  output po{i}")))
        .collect();
    let _ = writeln!(s, "{}\n);", ports.join(",\n"));
    for (cell, _) in netlist.cells().iter().zip(&live_cells).filter(|(_, &l)| l) {
        let _ = writeln!(s, "  wire n{};", cell.output);
    }
    for (master, instance, pins) in gates(netlist, lib) {
        let conns: Vec<String> = pins.iter().map(|(f, a)| format!(".{f}({a})")).collect();
        let _ = writeln!(s, "  {master} {instance} ({});", conns.join(", "));
    }
    s.push_str("endmodule\n");
    s
}

/// The upload corpus plus the disposition each document must get.
#[derive(Debug, Clone)]
pub struct UploadCorpus {
    /// Every document, in a fixed order.
    pub docs: Vec<Arc<UploadDoc>>,
    /// Upload fingerprint → whether the front door must accept it.
    pub accept: BTreeMap<u64, bool>,
}

/// Render `families × sizes` synthesized designs, alternating BLIF and
/// Verilog, add the checked-in fixtures, and add `corruptions` seeded
/// truncations of rendered documents (see [`tear`]), which the front
/// door must quarantine.
///
/// # Panics
///
/// Panics if a family name is unknown or synthesis fails: the inputs
/// are fixed generator designs, so either is a bug.
#[must_use]
pub fn corpus(
    families: &[&str],
    sizes: &[u32],
    corruptions: usize,
    seed: u64,
    tracer: &Tracer,
    at: Ctx,
) -> UploadCorpus {
    let lib = Library::synthetic_14nm();
    let recipes = Recipe::standard_suite();
    let synthesizer = Synthesizer::new().with_verification(false);
    let ctx = ExecContext::with_vcpus(1);
    let mut docs = Vec::new();
    let mut accept = BTreeMap::new();
    for (i, (family, size)) in families
        .iter()
        .flat_map(|f| sizes.iter().map(move |s| (*f, *s)))
        .enumerate()
    {
        let aig = tracer.span("netlist.build", at, |_| {
            generators::build_family(family, size).expect("known family")
        });
        let recipe = &recipes[(seed as usize).wrapping_add(i) % recipes.len()];
        let (netlist, _) = synthesizer
            .run(&aig, recipe, &ctx)
            .expect("synthesis of a generator design");
        let name = format!("{family}{size}_{}", recipe.name().replace('-', "_"));
        let doc = if i % 2 == 0 {
            UploadDoc::new(name.clone(), "blif", render_blif(&netlist, &lib, &name))
        } else {
            UploadDoc::new(
                name.clone(),
                "verilog",
                render_verilog(&netlist, &lib, &name),
            )
        };
        accept.insert(doc.fingerprint, true);
        docs.push(Arc::new(doc));
    }
    let rendered = docs.len();
    for doc in fixtures::uploads() {
        accept.insert(doc.fingerprint, true);
        docs.push(doc);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0AA_0975);
    for _ in 0..corruptions {
        let doc = tear(&docs[rng.gen_range(0..rendered)], &mut rng);
        if accept.insert(doc.fingerprint, false).is_none() {
            docs.push(Arc::new(doc));
        }
    }
    UploadCorpus { docs, accept }
}

/// Cut a rendered document at a seeded point after its port header and
/// before its last line. A torn BLIF keeps its `.outputs` line but
/// loses at least the last output buffer, so an output is undriven; a
/// torn Verilog module loses `endmodule`. Either way the upload is
/// malformed.
///
/// # Panics
///
/// Panics if `doc` is not one of [`render_blif`] / [`render_verilog`]'s
/// documents.
pub fn tear(doc: &UploadDoc, rng: &mut ChaCha8Rng) -> UploadDoc {
    let text = &doc.text;
    let (header_end, tail) = if doc.format == "blif" {
        let outputs = text.find("\n.outputs").expect("rendered BLIF has outputs");
        let header_end = outputs + 1 + text[outputs + 1..].find('\n').expect("header line ends");
        (
            header_end + 1,
            text.rfind("\n.gate ").expect("rendered BLIF has gates") + 1,
        )
    } else {
        let header_end = text.find(");\n").expect("rendered Verilog has a port list") + 3;
        (
            header_end,
            text.rfind("endmodule").expect("rendered Verilog ends"),
        )
    };
    let cut = if header_end < tail {
        rng.gen_range(header_end..tail)
    } else {
        header_end
    };
    UploadDoc::new(
        format!("{}_torn{cut}", doc.name),
        doc.format.clone(),
        &text[..cut],
    )
}
