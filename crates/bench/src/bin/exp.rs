//! Runs one experiment of the registry: `exp <id>` prints its report
//! (`exp E13`, `exp e13` and `exp 13` are the same experiment), `exp list`
//! the registry. E19 and E20 run at `run_all`'s reduced sizes here; their
//! full-size, flag-taking runners are `exp19_scale` and `exp20_service`.

use std::process::exit;

fn main() {
    let registry = adn_bench::all();
    let list = || {
        let rows = registry
            .iter()
            .map(|(id, title, _)| format!("{id}  {title}\n"));
        rows.collect::<String>()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        eprint!("usage: exp <id> | exp list\n{}", list());
        exit(2);
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
    match found {
        Some((_, _, runner)) => print!("{}", runner()),
        None => {
            eprint!("exp: no experiment `{arg}`; the registry is\n{}", list());
            exit(2);
        }
    }
}
