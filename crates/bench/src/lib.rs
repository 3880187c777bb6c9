//! Shared plumbing for the figure/table regeneration binaries and the
//! Criterion benches. See DESIGN.md §3 for the experiment index.

use envmap::{merge_runs, EnvConfig, EnvMapper, EnvRun, EnvView, HostInput};
use gridml::merge::GatewayAlias;
use netsim::scenarios::{ens_lyon, Calibration, EnsLyon};
use netsim::Sim;
use nws::SeriesKey;

/// The six public hosts of the outside ENV run (paper §4.2).
pub fn outside_inputs() -> Vec<HostInput> {
    [
        "the-doors.ens-lyon.fr",
        "canaria.ens-lyon.fr",
        "moby.cri2000.ens-lyon.fr",
        "myri.ens-lyon.fr",
        "popc.ens-lyon.fr",
        "sci.ens-lyon.fr",
    ]
    .iter()
    .map(|s| HostInput::new(s))
    .collect()
}

/// The eleven private hosts of the inside ENV run.
pub fn inside_inputs() -> Vec<HostInput> {
    [
        "popc0.popc.private",
        "myri0.popc.private",
        "sci0.popc.private",
        "myri1.popc.private",
        "myri2.popc.private",
        "sci1.popc.private",
        "sci2.popc.private",
        "sci3.popc.private",
        "sci4.popc.private",
        "sci5.popc.private",
        "sci6.popc.private",
    ]
    .iter()
    .map(|s| HostInput::new(s))
    .collect()
}

/// The gateway aliases the user supplies for the merge (paper §4.3).
pub fn gateway_aliases() -> Vec<GatewayAlias> {
    vec![
        GatewayAlias::new("popc.ens-lyon.fr", "popc0.popc.private"),
        GatewayAlias::new("myri.ens-lyon.fr", "myri0.popc.private"),
        GatewayAlias::new("sci.ens-lyon.fr", "sci0.popc.private"),
    ]
}

/// Outcome of the full §4 mapping pipeline on ENS-Lyon.
pub struct MappedEnsLyon {
    pub platform: EnsLyon,
    pub outside: EnvRun,
    pub inside: EnvRun,
    pub merged: EnvView,
}

/// Run both ENV passes and the merge on a fresh ENS-Lyon platform.
pub fn map_ens_lyon() -> MappedEnsLyon {
    let platform = ens_lyon(Calibration::Paper);
    let mut eng = Sim::new(platform.topo.clone());
    let mapper = EnvMapper::new(EnvConfig::fast());
    let outside = mapper
        .map(&mut eng, &outside_inputs(), "the-doors.ens-lyon.fr", Some("well-known.example.org"))
        .expect("outside run succeeds");
    let inside = mapper
        .map(&mut eng, &inside_inputs(), "sci0.popc.private", None)
        .expect("inside run succeeds");
    let merged = merge_runs(&outside, &inside, &gateway_aliases());
    MappedEnsLyon { platform, outside, inside, merged }
}

/// Fixed-width table printer for experiment binaries.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let cols: Vec<String> =
                cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
            format!("  {}\n", cols.join("  "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        out.push_str(&format!("  {}\n", "-".repeat(total.saturating_sub(2))));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float with fixed decimals for table cells.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// The command line shared by the bins that write a `BENCH_*.json`:
/// `[--smoke] [--<flag> ...] [out.json]`. `--smoke` selects the CI
/// configuration; the first argument that is not a flag overrides the
/// output path.
pub struct BenchArgs {
    pub smoke: bool,
    pub out_path: String,
    args: Vec<String>,
}

impl BenchArgs {
    pub fn parse(default_out: &str) -> BenchArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let smoke = args.iter().any(|a| a == "--smoke");
        let out_path = args
            .iter()
            .find(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| default_out.to_string());
        BenchArgs { smoke, out_path, args }
    }

    /// Whether a bin-specific flag (e.g. `--dry-run`) was given.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

/// A gap is an outage once it exceeds this multiple of the series' own
/// mean cadence (clique rotations make short gaps routine).
pub const GAP_FACTOR: f64 = 4.0;

/// Mean over series of measured coverage: the fraction of the series'
/// span not spent in gaps beyond `GAP_FACTOR ×` its own mean cadence.
pub fn availability(series: &[(SeriesKey, Vec<(f64, f64)>)]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (_, pts) in series {
        if pts.len() < 3 {
            continue;
        }
        let span = pts[pts.len() - 1].0 - pts[0].0;
        if span <= 0.0 {
            continue;
        }
        let cadence = span / (pts.len() - 1) as f64;
        let allowed = GAP_FACTOR * cadence;
        let lost: f64 = pts.windows(2).map(|w| (w[1].0 - w[0].0 - allowed).max(0.0)).sum();
        sum += 1.0 - lost / span;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_pipeline_runs() {
        let m = map_ens_lyon();
        assert_eq!(m.merged.network_count(), 4);
        assert_eq!(m.outside.view.networks.len(), 2);
        assert!(m.inside.stats.bw_probes > 0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["n", "value"]);
        t.row(vec!["1".into(), "10.5".into()]);
        t.row(vec!["20".into(), "3.25".into()]);
        let s = t.render();
        assert!(s.contains(" n"));
        assert!(s.contains("20"));
        assert_eq!(f(1.23456, 2), "1.23");
    }
}
