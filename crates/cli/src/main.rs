#![forbid(unsafe_code)]

//! The `vds` binary: forwards arguments to the testable dispatcher.

fn main() {
    vds_obs::logging::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match vds_cli::dispatch(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("{}", e.msg);
            std::process::exit(e.code);
        }
    }
}
