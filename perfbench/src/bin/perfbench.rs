//! The untraced benchmark: end-to-end metrics.

fn main() {
    coolair_perfbench::main_with(None);
}
