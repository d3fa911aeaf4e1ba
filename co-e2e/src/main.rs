fn main() -> std::process::ExitCode {
    co_e2e::cli::main()
}
