//! `cargo bench -p plexus-bench --bench repro [-- section… | --list]`:
//! reprints the paper's figures and tables; see the `plexus_bench` docs.

fn main() {
    if let Err(e) = plexus_bench::run(std::env::args().skip(1)) {
        eprintln!("repro: {e}");
        std::process::exit(2);
    }
}
