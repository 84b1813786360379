// Seeded trace-names-from-taxonomy violations; the raw string is a trap.
fn trap() -> &'static str {
    r#"trace.finish_stage(timer, "flatten", rows, rows, 1);"#
}
fn bad(trace: &mut TraceBuilder, obs: ObsConfig, rows: usize) {
    trace.finish_stage(trace.start(), "flatten", rows, rows, 1);
    let _ = TraceBuilder::new(obs, "one-shot");
    trace.finish_stage(trace.start(), stage::ENCODE, rows, rows, 1);
    let _ = TraceBuilder::new(obs, Executor::OneShot.name());
}
