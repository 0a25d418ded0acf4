//! Stamps the rustc version, the git commit (when the sources are a git
//! checkout) and the build profile into the binary for the host record.

use std::process::Command;

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let commit = output_of("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_owned());
    println!("cargo:rustc-env=E2EBENCH_RUSTC={version}");
    println!("cargo:rustc-env=E2EBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=E2EBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
