#[global_allocator]
static ALLOC: abr_benchmark::host::CountingAlloc = abr_benchmark::host::CountingAlloc;

fn main() {
    std::process::exit(abr_benchmark::cli::main());
}
