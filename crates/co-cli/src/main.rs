//! `co-node` — a single causal-broadcast entity on the command line.
//!
//! See the crate docs for usage; lines typed on stdin are broadcast, and
//! every delivery is printed as `E<k>#<seq>  <text>` in causal order.

use co_cli::{parse_args, run_node, NodeEvent, NodeHandle};

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let NodeHandle {
        input,
        events,
        thread,
    } = match run_node(args) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to start node: {e}");
            std::process::exit(1);
        }
    };

    // Print events on a dedicated thread.
    let printer = std::thread::spawn(move || {
        for event in events {
            match event {
                NodeEvent::Ready { local, n } => {
                    eprintln!("ready on {local}, cluster of {n}; type to broadcast, ^D to quit");
                }
                NodeEvent::Delivered { origin, seq, text } => {
                    println!("{origin}#{seq}  {text}");
                }
                NodeEvent::Stopped => break,
            }
        }
    });

    // Forward stdin lines until EOF.
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::stdin().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let trimmed = line.trim_end_matches(['\n', '\r']);
                if !trimmed.is_empty() {
                    let _ = input.send(Some(trimmed.to_string()));
                }
            }
        }
    }
    let _ = input.send(None);
    let crashed = thread.join().is_err();
    let _ = printer.join();
    if crashed {
        std::process::exit(1);
    }
}
