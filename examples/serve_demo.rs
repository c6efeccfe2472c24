//! The deployable end state of the paper (Fig. 3 steps 4-5 as a service):
//! build a model repository, start the `morer-serve` HTTP server on a
//! loopback port, and drive the full endpoint surface — health, model
//! search, solving, batch solving, streaming ingest and stats — through
//! the bundled HTTP client, asserting along the way that the wire answers
//! are bit-identical to in-process `ModelSearcher` calls. Finishes with a
//! graceful shutdown.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! The printed curl lines can be replayed against a long-running server
//! (`ServeConfig { addr: "127.0.0.1:7878".into(), .. }`).

use morer::core::prelude::*;
use morer::data::{computer, DatasetScale};
use morer::serve::{Connection, HealthResponse, MorerServer, ServeConfig, StatsResponse};

fn main() -> std::io::Result<()> {
    // 1. build the repository from the solved problems (the writer API)
    let bench = computer(DatasetScale::Tiny, 42);
    let config = MorerConfig { budget: 300, ..MorerConfig::default() };
    let (morer, report) = Morer::build(bench.initial_problems(), &config);
    let reference = morer.searcher().clone();
    println!(
        "built a repository of {} models from {} problems ({} labels)\n",
        report.num_clusters,
        bench.initial.len(),
        report.labels_used
    );

    // 2. start serving it: reads go to an epoch-pinned snapshot, ingests
    // micro-batch through a single writer thread
    let handle = MorerServer::start(morer, &ServeConfig::default())?;
    let addr = handle.addr();
    println!("serving on http://{addr}  (reactor + compute pool + writer). curl cheatsheet:");
    println!("  curl http://{addr}/healthz");
    println!("  curl http://{addr}/stats");
    println!("  curl -X POST --data @problem.json http://{addr}/search");
    println!("  curl -X POST --data @problem.json http://{addr}/solve");
    println!("  curl -X POST --data @problems.json http://{addr}/solve_batch");
    println!("  curl -X POST --data @problems.json http://{addr}/ingest\n");

    let mut conn = Connection::open(addr)?;

    // 3. liveness + epoch
    let health: HealthResponse = conn.get("/healthz")?.json()?;
    println!("GET /healthz      -> epoch {} with {} models", health.epoch, health.models);

    // 4. model search + solve for an unsolved problem, checked against the
    // in-process searcher (the wire format round-trips floats exactly)
    let unsolved = bench.unsolved_problems();
    let query = unsolved[0];
    let body = serde_json::to_string(query).expect("encode query");
    let hit: SearchHit = conn.post("/search", &body)?.json()?;
    assert_eq!(hit, reference.search(query).unwrap());
    println!(
        "POST /search      -> entry {} at sim_p {:.3}  (== in-process search)",
        hit.entry_id, hit.similarity
    );
    let outcome: SolveOutcome = conn.post("/solve", &body)?.json()?;
    let direct = reference.solve(query);
    assert_eq!(outcome, direct);
    println!(
        "POST /solve       -> {} pairs, {} predicted matches  (bit-identical to in-process)",
        outcome.predictions.len(),
        outcome.predictions.iter().filter(|&&p| p).count()
    );

    // 5. batch solve the rest
    let batch: Vec<_> = unsolved.iter().skip(1).take(3).collect();
    let batch_body = serde_json::to_string(&batch).expect("encode batch");
    let outcomes: Vec<SolveOutcome> = conn.post("/solve_batch", &batch_body)?.json()?;
    println!("POST /solve_batch -> {} outcomes in one round trip", outcomes.len());

    // 6. stream a solved problem back in; the reply is the IngestReport of
    // the commit it was part of, and the epoch advances for later reads
    let ingest: IngestReport = conn.post("/ingest", &body)?.json()?;
    println!(
        "POST /ingest      -> epoch {}: +{} edges, {} retrained, {} new models",
        ingest.epoch, ingest.edges_added, ingest.models_retrained, ingest.new_models
    );
    assert_eq!(handle.epoch(), ingest.epoch);

    // 7. per-endpoint counters from the lock-free metrics registry
    let stats: StatsResponse = conn.get("/stats")?.json()?;
    println!("\nGET /stats at epoch {}:", stats.epoch);
    println!("  endpoint     requests  errors  mean_us    max_us");
    for e in stats.endpoints.iter().filter(|e| e.requests > 0) {
        println!(
            "  {:<12} {:>8}  {:>6}  {:>7.0}  {:>8}",
            e.endpoint, e.requests, e.errors, e.mean_micros, e.max_micros
        );
    }

    // 8. done: joins the reactor, the compute pool and the writer; queued ingests commit first
    handle.shutdown();
    println!("\nserver shut down cleanly");
    Ok(())
}
