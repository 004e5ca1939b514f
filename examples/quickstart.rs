//! Quickstart: protect a tiny program end to end.
//!
//! Builds a two-module program with the assembler DSL, runs the full
//! FlowGuard pipeline (static analysis → training → protected execution),
//! and shows that benign execution passes.
//!
//! Run with: `cargo run --example quickstart`

use fg_isa::asm::Asm;
use fg_isa::image::Linker;
use fg_isa::insn::regs::*;
use flowguard::{Deployment, FlowGuardConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a program: main reads a byte, dispatches through a function
    //    pointer table, writes a response.
    let mut libc = Asm::new("libc");
    libc.export("write_out");
    libc.label("write_out");
    libc.mov(R3, R2);
    libc.mov(R2, R1);
    libc.movi(R1, 1);
    libc.movi(R0, 2); // write
    libc.syscall();
    libc.ret();

    let mut app = Asm::new("app");
    app.import("write_out").needs("libc");
    app.export("main");
    app.label("main");
    // read(fd=0, buf=heap, len=1)
    app.movi(R0, 1);
    app.movi(R1, 0);
    app.movi(R2, 0x6000_0000);
    app.movi(R3, 1);
    app.syscall();
    // dispatch handlers[byte & 1]
    app.movi(R8, 0x6000_0000);
    app.ldb(R9, R8, 0);
    app.andi(R9, 1);
    app.shli(R9, 3);
    app.lea(R10, "handlers");
    app.add(R10, R9);
    app.ld(R11, R10, 0);
    app.calli(R11);
    // exit(0)
    app.movi(R0, 0);
    app.movi(R1, 0);
    app.syscall();
    app.halt();
    app.label("ping");
    app.lea(R1, "pong");
    app.movi(R2, 5);
    app.call("write_out");
    app.ret();
    app.label("boom");
    app.lea(R1, "bang");
    app.movi(R2, 5);
    app.call("write_out");
    app.ret();
    app.data_bytes("pong", b"pong\n");
    app.data_bytes("bang", b"bang\n");
    app.data_ptrs("handlers", &["ping", "boom"]);

    let image = Linker::new(app.finish()?).library(libc.finish()?).link()?;
    println!("linked: {} modules, {} instructions", image.modules().len(), image.total_insns());

    // 2. Static analysis: O-CFG → ITC-CFG.
    let mut deployment = Deployment::analyze(&image);
    println!(
        "ITC-CFG: {} nodes, {} edges",
        deployment.itc.node_count(),
        deployment.itc.edge_count()
    );

    // 3. Train on both handler paths.
    let stats = deployment.train(&[b"a".to_vec(), b"b".to_vec()]);
    println!(
        "training: {} TIP pairs observed, {} edges labeled high-credit",
        stats.pairs, stats.edges_labeled
    );

    // 4. Protected execution.
    let mut process = deployment.launch(b"a", FlowGuardConfig::default());
    let stop = process.run(1_000_000);
    println!(
        "protected run: {stop:?}, output = {:?}, checks = {}, violation = {}",
        String::from_utf8_lossy(&process.kernel.output),
        process.stats.checks(),
        process.violated()
    );
    assert!(!process.violated(), "benign input must pass");
    Ok(())
}
