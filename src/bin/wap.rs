//! The `wap` command-line tool: analyze PHP applications for 15 classes of
//! input-validation vulnerabilities, predict false positives, optionally
//! correct the source — or host the whole pipeline as a resident HTTP
//! service (`wap serve`), stream findings deltas as sources change
//! (`wap watch`), or serve editor diagnostics over stdio (`wap lsp`).
//! `wap lint` runs the CFG-based lint pass (shorthand for `wap --lint`);
//! `wap rules` manages installed rule packs for `--lint --rules`.

// Count allocations so `--stats` can report them alongside peak RSS.
// Each allocation is one relaxed increment of the calling thread's own
// cache-line-padded counter shard; one shared counter cost 7.6% of a
// 2-job cold scan's CPU time in cache-line traffic.
#[global_allocator]
static ALLOC: wap_core::CountingAlloc = wap_core::CountingAlloc;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        args.remove(0);
        std::process::exit(wap_serve::cli_main(args));
    }
    if args.first().map(String::as_str) == Some("watch") {
        args.remove(0);
        std::process::exit(wap_live::cli::watch_main(args));
    }
    if args.first().map(String::as_str) == Some("lsp") {
        args.remove(0);
        std::process::exit(wap_live::cli::lsp_main(args));
    }
    if args.first().map(String::as_str) == Some("rules") {
        args.remove(0);
        std::process::exit(wap_rules::cli_main(args));
    }
    // `wap lint <PATH>...` is shorthand for `wap --lint <PATH>...`
    let lint_subcommand = args.first().map(String::as_str) == Some("lint");
    if lint_subcommand {
        args.remove(0);
    }
    let opts = match wap_core::cli::parse_args(args) {
        Ok(mut o) => {
            o.lint |= lint_subcommand;
            o
        }
        Err(err) => {
            eprintln!("error: {err}\n\n{}", wap_core::cli::USAGE);
            std::process::exit(err.exit_code());
        }
    };
    match wap_core::cli::run(&opts) {
        Ok((code, output)) => {
            print!("{output}");
            std::process::exit(code);
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(err.exit_code());
        }
    }
}
