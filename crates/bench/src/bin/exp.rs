//! Experiment runner: regenerates every table and figure of the paper's
//! §6, and the extensions measured beside them.
//!
//! ```text
//! exp <id> [--scale S] [--json]
//! ids: fig6-1 fig6-2 fig6-3 fig6-4 table6-1 table6-2 ablation restricted baselines recon window all
//! ```

use std::process::ExitCode;

use msync_bench::experiments as exp;
use msync_bench::experiments::Report;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_and_run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn parse_and_run(args: &[String]) -> Result<(), String> {
    let mut id: Option<&str> = None;
    let mut scale: Option<f64> = None;
    let mut json = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().and_then(|s| s.parse().ok());
                scale = Some(value.ok_or("--scale needs a number")?);
            }
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return Ok(());
            }
            other if id.is_none() => id = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let id = id.ok_or_else(|| format!("missing experiment id\n{USAGE}"))?;

    for r in run(id, scale)? {
        if json {
            println!("{}", json::to_string(&r));
        } else {
            println!("{}", r.render());
        }
    }
    Ok(())
}

fn run(id: &str, scale: Option<f64>) -> Result<Vec<Report>, String> {
    // Default scales keep full runs in tens of seconds while staying
    // large enough (dozens of files / megabytes) for stable shapes.
    let s_src = scale.unwrap_or(0.10);
    let s_web = scale.unwrap_or(0.02);
    Ok(match id {
        "fig6-1" => vec![exp::fig6_basic("gcc", s_src)],
        "fig6-2" => vec![exp::fig6_basic("emacs", s_src)],
        "fig6-3" => vec![exp::fig6_3(s_src)],
        "fig6-4" => vec![exp::fig6_4(s_src)],
        "table6-1" => vec![exp::table6_1(s_src)],
        "table6-2" => vec![exp::table6_2(s_web)],
        "ablation" => vec![exp::ablation(s_src)],
        "restricted" => vec![exp::restricted(s_src)],
        "baselines" => vec![exp::baselines(s_src)],
        "recon" => vec![exp::recon(s_web * 5.0)],
        "window" => vec![exp::window(s_src)],
        "all" => vec![
            exp::fig6_basic("gcc", s_src),
            exp::fig6_basic("emacs", s_src),
            exp::fig6_3(s_src),
            exp::fig6_4(s_src),
            exp::table6_1(s_src),
            exp::table6_2(s_web),
            exp::ablation(s_src),
            exp::restricted(s_src),
            exp::baselines(s_src),
            exp::recon(s_web * 5.0),
            exp::window(s_src),
        ],
        other => return Err(format!("unknown experiment `{other}`")),
    })
}

const USAGE: &str = "usage: exp <id> [--scale S] [--json]\n\
    ids: fig6-1 fig6-2 fig6-3 fig6-4 table6-1 table6-2 ablation restricted baselines recon window all\n\
    scale: corpus size fraction (1.0 = the paper's full size)";

// Hand-rolled JSON: a report is strings in two levels of arrays, and
// the workspace takes no registry dependencies.
mod json {
    use super::Report;

    pub(crate) fn to_string(r: &Report) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        write!(
            out,
            "{{\"id\":{},\"title\":{},\"columns\":[{}],\"rows\":[",
            quote(&r.id),
            quote(&r.title),
            r.columns.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
        )
        .expect("writing to String cannot fail");
        for (i, row) in r.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"label\":{},\"cells\":[{}]}}",
                quote(&row.label),
                row.cells.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            )
            .expect("writing to String cannot fail");
        }
        write!(
            out,
            "],\"notes\":[{}]}}",
            r.notes.iter().map(|n| quote(n)).collect::<Vec<_>>().join(",")
        )
        .expect("writing to String cannot fail");
        out
    }

    fn quote(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}
