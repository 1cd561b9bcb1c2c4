//! The `serve` binary: put the `LWCP` compression service on a TCP port.
//!
//! ```text
//! cargo run --release -p lwc-server --bin serve -- [flags]
//!
//!   --addr HOST:PORT    listen address             (default 127.0.0.1:7453)
//!   --workers N         codec worker threads       (default 0 = all cores)
//!   --budget N          global in-flight budget    (default 0 = 4 x workers)
//!   --conn-inflight N   per-connection cap         (default 0 = 64)
//!   --cache-entries N   response cache entries     (default 0 = disabled)
//!   --cache-mb N        response cache byte budget (default 0 = 256 MiB)
//!   --scales N          compress decomposition     (default 4)
//!   --delta N           near-lossless bound        (default 0 = lossless)
//!   --tile N            compress tile size         (default 256)
//!   --z-scales N        volume z decomposition     (default 2)
//!   --brick-depth N     volume brick depth         (default 8)
//!   --max-frame-mb N    per-frame payload limit    (default 64)
//!   --duration SECS     serve then exit            (default 0 = forever)
//! ```

use lwc_server::{Server, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--budget N] [--conn-inflight N] \
         [--cache-entries N] [--cache-mb N] [--scales N] [--delta N] [--tile N] \
         [--z-scales N] [--brick-depth N] [--max-frame-mb N] [--duration SECS]"
    );
    std::process::exit(2);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut addr = "127.0.0.1:7453".to_owned();
    let mut config = ServerConfig::default();
    let mut duration = 0u64;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => config.workers = value("--workers").parse()?,
            "--budget" => config.queue_depth = value("--budget").parse()?,
            "--conn-inflight" => config.conn_inflight = value("--conn-inflight").parse()?,
            "--cache-entries" => config.cache_entries = value("--cache-entries").parse()?,
            "--cache-mb" => {
                config.cache_bytes = value("--cache-mb").parse::<usize>()? << 20;
            }
            "--scales" => config.scales = value("--scales").parse()?,
            "--delta" => config.delta = value("--delta").parse()?,
            "--tile" => config.tile_size = value("--tile").parse()?,
            "--z-scales" => config.z_scales = value("--z-scales").parse()?,
            "--brick-depth" => config.brick_depth = value("--brick-depth").parse()?,
            "--max-frame-mb" => {
                config.max_payload_bytes = value("--max-frame-mb").parse::<usize>()? << 20;
            }
            "--duration" => duration = value("--duration").parse()?,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }

    let mut server = Server::bind(addr.as_str(), config)?;
    let resolved = *server.config();
    let cache = if resolved.cache_entries == 0 {
        "off".to_owned()
    } else {
        format!("{} entries / {} MiB", resolved.cache_entries, resolved.cache_bytes >> 20)
    };
    println!(
        "lwc-server listening on {} ({} workers, in-flight budget {}, {} per connection, \
         cache {}, scales {}, delta {}, tile {}, z-scales {}, brick depth {}, \
         max frame {} MiB)",
        server.local_addr(),
        resolved.workers,
        resolved.queue_depth,
        resolved.conn_inflight,
        cache,
        resolved.scales,
        resolved.delta,
        resolved.tile_size,
        resolved.z_scales,
        resolved.brick_depth,
        resolved.max_payload_bytes >> 20
    );
    if duration == 0 {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(duration));
    let stats = server.stats();
    server.shutdown();
    println!("served for {duration} s: {stats}");
    Ok(())
}
