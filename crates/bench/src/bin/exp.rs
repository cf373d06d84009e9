//! Runs one experiment of the registry: `exp <id>` prints its report
//! (`exp E13`, `exp e13` and `exp 13` are the same experiment), `exp list`
//! the registry. E19 and E20 run at `run_all`'s reduced sizes unless
//! `--n <nodes>` says otherwise (`exp 19 --n 100000` and `exp 20 --n 256`
//! are the full-size demonstrations).

use std::process::exit;

use adn_bench::cli::Flags;
use adn_bench::{e19_scale, e20_service};

fn main() {
    let registry = adn_bench::all();
    let list = || {
        let rows = registry
            .iter()
            .map(|(id, title, _)| format!("{id}  {title}\n"));
        rows.collect::<String>()
    };
    let fail = |message: String| -> ! {
        eprintln!("exp: {message}");
        exit(2);
    };
    let mut args = std::env::args().skip(1);
    let Some(arg) = args.next() else {
        fail(format!(
            "usage: exp <id> [--n <nodes>] | exp list\n{}",
            list().trim_end()
        ));
    };
    if arg == "list" {
        print!("{}", list());
        return;
    }
    let number = arg.trim_start_matches(['E', 'e']).parse::<u32>().ok();
    let wanted = number.map(|k| format!("E{k:02}"));
    let found = registry
        .iter()
        .find(|(id, _, _)| Some(*id) == wanted.as_deref());
    let Some((id, _, runner)) = found else {
        fail(format!(
            "no experiment `{arg}`; the registry is\n{}",
            list().trim_end()
        ));
    };
    let flags = Flags::parse(args).unwrap_or_else(|e| fail(e));
    let sized: Option<fn(usize) -> String> = match *id {
        "E19" => Some(e19_scale::run_at),
        "E20" => Some(e20_service::run_at),
        _ => None,
    };
    let n = flags.get("n").map(|v| {
        v.parse::<usize>()
            .unwrap_or_else(|_| fail(format!("--n: cannot parse {v:?}")))
    });
    match (sized, n) {
        (_, None) => print!("{}", runner()),
        (Some(run_at), Some(n)) => print!("{}", run_at(n)),
        (None, Some(_)) => fail(format!("{id} takes no --n (only E19 and E20 do)")),
    }
}
