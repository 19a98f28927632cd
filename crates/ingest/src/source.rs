//! Block sources: everything that can feed a sharded ingest [`Sink`].
//!
//! A [`BlockSource`] drives production — it owns its input (a vector, a
//! set of RPC endpoints) and pushes numbered blocks into the bounded sink
//! until the stream is exhausted, returning source-specific accounting.
//! Two adapter families ship here and in [`crate::crawl`]:
//!
//! - [`MemorySource`] — in-memory scenarios (the test fake);
//! - `EosCrawlSource` / `TezosCrawlSource` / `XrpCrawlSource`
//!   ([`crate::crawl`]) — the live loopback-RPC crawlers.

use crate::shard::Sink;
use crate::IngestError;

/// A producer of numbered blocks. `produce` consumes the source and the
/// sink; dropping the sink at the end is what signals end-of-stream to the
/// shard workers.
pub trait BlockSource: Send + Sized + 'static {
    type Block: Send + 'static;
    /// Source-specific accounting returned when the stream ends.
    type Stats: Send + 'static;

    fn produce(
        self,
        sink: Sink<Self::Block>,
    ) -> impl std::future::Future<Output = Result<Self::Stats, IngestError>> + Send;
}

/// An in-memory source: streams a pre-numbered block list.
pub struct MemorySource<B> {
    blocks: Vec<(u64, B)>,
}

impl<B> MemorySource<B> {
    pub fn new(blocks: Vec<(u64, B)>) -> Self {
        MemorySource { blocks }
    }

    /// Number blocks with a key extractor (`|b| b.num` etc.).
    pub fn numbered(blocks: impl IntoIterator<Item = B>, key: impl Fn(&B) -> u64) -> Self {
        MemorySource { blocks: blocks.into_iter().map(|b| (key(&b), b)).collect() }
    }
}

impl<B: Send + 'static> BlockSource for MemorySource<B> {
    type Block = B;
    type Stats = u64;

    async fn produce(self, sink: Sink<B>) -> Result<u64, IngestError> {
        let mut sent = 0u64;
        for (n, b) in self.blocks {
            sink.send(n, b).await.map_err(|_| IngestError::SinkClosed)?;
            sent += 1;
        }
        Ok(sent)
    }
}
