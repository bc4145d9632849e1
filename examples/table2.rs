//! Regenerates **Table 2** of the paper: the `untainted` format-string
//! experiment on the stand-ins for bftpd, mingetty, and identd — then
//! goes one step further than static checking and *executes* the bftpd
//! bug on the interpreter to show the exploit is real.
//!
//! Run with: `cargo run --example table2`

use stq_core::{RuntimeError, Session};
use stq_corpus::tables::{render_table2, table2};
use stq_corpus::taint::bftpd_source;

fn main() {
    let rows = table2();
    println!("{}", render_table2(&rows));
    println!("paper reference:  bftpd 750/134/2/0/1 · mingetty 293/23/1/0/0 · identd 228/21/0/0/0");
    let measured: Vec<_> = rows
        .iter()
        .map(|r| (r.lines, r.printf_calls, r.annotations, r.casts, r.errors))
        .collect();
    assert_eq!(
        measured,
        vec![(750, 134, 2, 0, 1), (293, 23, 1, 0, 0), (228, 21, 0, 0, 0)],
        "Table 2 must match the paper exactly"
    );
    println!("table 2 reproduced exactly.\n");

    // The one error is the previously identified exploitable bug:
    // sendstrf(s, entry->d_name). Demonstrate it dynamically: build a
    // malicious "directory entry" whose name contains conversion
    // specifiers and watch printf walk off the argument list.
    let session = Session::with_builtins();
    let source = format!(
        "{}
         int exploit() {{
             struct dirent* e = malloc(sizeof(struct dirent));
             e->d_name = \"%d%s%s\";
             int r;
             r = list_directory(1, e);
             return r;
         }}",
        bftpd_source()
    );
    let program = session.parse(&source).expect("corpus and driver parse");

    match session.run_instrumented(&program, "exploit", &[]) {
        Err(RuntimeError::FormatString { detail, .. }) => {
            println!("dynamic confirmation of the bftpd bug: {detail}");
        }
        other => panic!("expected the format-string exploit to fire, got {other:?}"),
    }
}
