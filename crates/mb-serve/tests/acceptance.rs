//! The mb-serve acceptance criteria: concurrent submissions sharing one
//! fingerprint train once, report byte-identically to standalone runs, and
//! retrains publish new epochs without touching in-flight readers.
#![expect(
    clippy::disallowed_methods,
    reason = "test code: concurrent callers on threads of their own, and deadlines"
)]

use macrobase_core::query::{Executor, MdpQuery};
use macrobase_core::types::Point;
use macrobase_core::wire::report_to_string;
use mb_serve::{CacheOutcome, JobStatus, Priority, QuerySpec, ServeConfig, Server};
use std::time::{Duration, Instant};

fn corpus() -> Vec<Point> {
    let mut points: Vec<Point> = (0..5_000)
        .map(|i| Point::simple(10.0 + (i % 7) as f64 * 0.2, format!("device_{}", i % 20)))
        .collect();
    for i in 0..50 {
        points[i * 100] = Point::simple(90.0, "device_13");
    }
    points
}

fn spec() -> QuerySpec {
    QuerySpec {
        analysis: Default::default(),
        executor: Executor::OneShot,
    }
}

fn wait_done(server: &Server, id: &str) -> mb_serve::JobResult {
    match server.poll(id, Some(Duration::from_secs(120))).unwrap() {
        JobStatus::Done(result) => *result,
        other => panic!("job {id} did not finish: {other:?}"),
    }
}

#[test]
fn concurrent_queries_share_one_model_and_reports_stay_byte_identical() {
    let points = corpus();
    let mut standalone_query = MdpQuery::with_defaults();
    let standalone = standalone_query.execute(&Executor::OneShot, &points).unwrap();
    let standalone_bytes = report_to_string(&standalone);

    let server = Server::start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });

    // N = 4 concurrent submissions with the same AnalysisConfig fingerprint.
    for i in 0..4 {
        server
            .submit(&format!("q{i}"), spec(), points.clone(), Priority::Normal)
            .unwrap();
    }
    let mut outcomes = Vec::new();
    for i in 0..4 {
        let result = wait_done(&server, &format!("q{i}"));
        // (a) byte-identical to the standalone one-shot run.
        assert_eq!(report_to_string(&result.report), standalone_bytes);
        // Provenance: every report scored against epoch 1.
        assert_eq!(result.model_epoch, Some(1));
        outcomes.push(result.cache.unwrap());
    }

    // (b) the model trained exactly once: one miss, three hits.
    let stats = server.stats();
    assert_eq!(stats.counter("model_trainings"), 1);
    assert_eq!(stats.counter("cache_misses"), 1);
    assert_eq!(stats.counter("cache_hits"), 3);
    assert_eq!(
        outcomes.iter().filter(|o| **o == CacheOutcome::Miss).count(),
        1
    );
    assert_eq!(stats.counter("jobs_completed"), 4);

    // (c) a background retrain publishes epoch 2 while holders of the old
    // snapshot keep reading epoch 1.
    let old = server.model_snapshot("q0").unwrap();
    assert_eq!(old.epoch, 1);
    server.retrain("q0").unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while server.stats().counter("epochs_published") < 2 {
        assert!(Instant::now() < deadline, "retrain never published");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The held snapshot is immutable — still epoch 1 — and still produces
    // the identical report (training is deterministic over the same data).
    assert_eq!(old.epoch, 1);
    let via_old = standalone_query.execute_with_model(&old.model, &points).unwrap();
    assert_eq!(report_to_string(&via_old), standalone_bytes);

    // A new subscriber reads the new epoch; its report is still
    // byte-identical because the training data did not change.
    server
        .submit("q4", spec(), points.clone(), Priority::Normal)
        .unwrap();
    let result = wait_done(&server, "q4");
    assert_eq!(result.model_epoch, Some(2));
    assert_eq!(result.cache, Some(CacheOutcome::Hit));
    assert_eq!(report_to_string(&result.report), standalone_bytes);
}

#[test]
fn partitioned_and_streaming_submissions_match_their_standalone_runs() {
    let points = corpus();
    for executor in [
        Executor::Coordinated { partitions: 4 },
        Executor::NaivePartitioned { partitions: 2 },
        Executor::streaming(),
    ] {
        let standalone = MdpQuery::with_defaults()
            .execute(&executor, &points)
            .unwrap();
        let server = Server::start(ServeConfig::default());
        server
            .submit(
                "job",
                QuerySpec {
                    analysis: Default::default(),
                    executor: executor.clone(),
                },
                points.clone(),
                Priority::High,
            )
            .unwrap();
        let result = wait_done(&server, "job");
        assert_eq!(
            report_to_string(&result.report),
            report_to_string(&standalone),
            "{executor:?} diverged through the server"
        );
        // Coordinated runs the one-shot engine, so it goes through the
        // model table; the other executors bypass it: no provenance.
        if let Executor::Coordinated { .. } = executor {
            assert_eq!(result.model_epoch, Some(1));
            assert_eq!(result.cache, Some(CacheOutcome::Miss));
        } else {
            assert_eq!(result.model_epoch, None);
            assert_eq!(result.cache, None);
        }
    }
}

#[test]
fn session_lifecycle_create_feed_report_close_and_idle_expiry() {
    let server = Server::start(ServeConfig {
        session_idle: Duration::from_millis(40),
        ..ServeConfig::default()
    });
    let streaming_spec = QuerySpec {
        analysis: Default::default(),
        executor: Executor::streaming(),
    };
    server.open_session("s1", streaming_spec.clone()).unwrap();

    let batch: Vec<Point> = (0..2_000)
        .map(|i| Point::simple(10.0 + (i % 7) as f64, format!("d{}", i % 10)))
        .collect();
    let summary = server.feed("s1", &batch).unwrap();
    assert_eq!(summary.points, 2_000);
    assert_eq!(summary.total_points, 2_000);
    let report = server.session_report("s1").unwrap();
    assert_eq!(report.num_points, 2_000);

    // Close is explicit and counted.
    assert_eq!(server.close("s1"), Ok(mb_serve::Closed::Session));
    assert!(server.feed("s1", &batch).is_err());

    // Idle expiry: an untouched session is gone after the idle window.
    server.open_session("s2", streaming_spec).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    assert!(matches!(
        server.feed("s2", &batch),
        Err(mb_serve::ServeError::UnknownId(_))
    ));
    let stats = server.stats();
    assert_eq!(stats.counter("sessions_opened"), 2);
    assert_eq!(stats.counter("sessions_closed"), 1);
    assert_eq!(stats.counter("sessions_expired"), 1);
}

#[test]
fn duplicate_ids_and_unknown_ids_are_typed_errors() {
    let server = Server::start(ServeConfig::default());
    let points = corpus();
    server
        .submit("dup", spec(), points.clone(), Priority::Normal)
        .unwrap();
    let err = server
        .submit("dup", spec(), points, Priority::Normal)
        .unwrap_err();
    assert!(matches!(err, mb_serve::ServeError::DuplicateId(_)));
    let err = server.poll("missing", None).unwrap_err();
    assert!(matches!(err, mb_serve::ServeError::UnknownId(_)));
    let err = server.close("missing").unwrap_err();
    assert!(matches!(err, mb_serve::ServeError::UnknownId(_)));

    // Closing a finished job forgets it.
    wait_done(&server, "dup");
    assert_eq!(server.close("dup"), Ok(mb_serve::Closed::Job));
    assert!(matches!(
        server.poll("dup", None),
        Err(mb_serve::ServeError::UnknownId(_))
    ));
}

#[test]
fn an_id_is_never_both_a_job_and_a_session() {
    use std::sync::{Arc, Barrier};

    let server = Arc::new(Server::start(ServeConfig {
        max_queue: 100_000,
        ..ServeConfig::default()
    }));
    let rounds = 2_000;
    let barrier = Arc::new(Barrier::new(2));
    // One thread opens a session under each fresh id while the other submits
    // a job under it; an empty batch keeps the job cheap (it fails typed).
    let opener = {
        let (server, barrier) = (Arc::clone(&server), Arc::clone(&barrier));
        std::thread::spawn(move || {
            let spec = QuerySpec {
                analysis: Default::default(),
                executor: Executor::streaming(),
            };
            (0..rounds)
                .map(|i| {
                    barrier.wait();
                    server.open_session(&format!("r{i}"), spec.clone()).is_ok()
                })
                .collect::<Vec<bool>>()
        })
    };
    let submitted: Vec<bool> = (0..rounds)
        .map(|i| {
            barrier.wait();
            server
                .submit(&format!("r{i}"), spec(), Vec::new(), Priority::Normal)
                .is_ok()
        })
        .collect();
    let opened = opener.join().unwrap();
    let both = (0..rounds).filter(|&i| opened[i] && submitted[i]).count();
    let neither = (0..rounds).filter(|&i| !opened[i] && !submitted[i]).count();
    assert_eq!((both, neither), (0, 0), "of {rounds} raced ids");
}
