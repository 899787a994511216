//! Query pipelines: a binary PJoin followed by a chain of unary
//! operators, executed over two timestamped input streams.

use pjoin::PJoin;
use punct_types::{StreamElement, Timestamped};
use stream_sim::{BinaryStreamOp, OpOutput, Side, Work};

use crate::operator::UnaryOperator;
use crate::sink::Sink;

/// Execution report of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Final output.
    pub sink: Sink,
    /// Elements the join emitted (before the unary chain).
    pub join_output_tuples: u64,
    /// Punctuations the join propagated.
    pub join_output_puncts: u64,
    /// Total operator work (cost-model units).
    pub work: Work,
}

/// A pipeline: PJoin at the base, then a chain of unary operators.
pub struct Pipeline {
    join: PJoin,
    ops: Vec<Box<dyn UnaryOperator>>,
}

impl Pipeline {
    /// Creates a pipeline over the given join.
    pub fn new(join: PJoin) -> Pipeline {
        Pipeline { join, ops: Vec::new() }
    }

    /// Appends a unary operator.
    pub fn then(mut self, op: impl UnaryOperator + 'static) -> Pipeline {
        self.ops.push(Box::new(op));
        self
    }

    /// Human-readable plan, join first.
    pub fn describe(&self) -> String {
        let mut parts = vec!["pjoin".to_string()];
        parts.extend(self.ops.iter().map(|o| o.name().to_string()));
        parts.join(" -> ")
    }

    /// Executes the pipeline over two timestamp-ordered input streams,
    /// merging them by arrival time.
    pub fn execute(
        mut self,
        left: &[Timestamped<StreamElement>],
        right: &[Timestamped<StreamElement>],
    ) -> PipelineReport {
        let mut sink = Sink::new();
        let mut join_out = OpOutput::new();
        let mut join_output_tuples = 0u64;
        let mut join_output_puncts = 0u64;
        let mut work = Work::ZERO;

        let (mut li, mut ri) = (0usize, 0usize);
        loop {
            let next = match (left.get(li), right.get(ri)) {
                (Some(l), Some(r)) => {
                    if l.ts <= r.ts {
                        li += 1;
                        Some((Side::Left, l))
                    } else {
                        ri += 1;
                        Some((Side::Right, r))
                    }
                }
                (Some(l), None) => {
                    li += 1;
                    Some((Side::Left, l))
                }
                (None, Some(r)) => {
                    ri += 1;
                    Some((Side::Right, r))
                }
                (None, None) => break,
            };
            let (side, e) = next.expect("loop breaks on None");
            self.join.on_element(side, e.item.clone(), e.ts, &mut join_out);
            work += self.join.take_work();
            Self::forward(
                &mut join_out,
                &mut self.ops,
                &mut sink,
                &mut join_output_tuples,
                &mut join_output_puncts,
            );
        }

        // Stream end: drain the join, then flush the unary chain.
        let end_ts = left
            .last()
            .map(|e| e.ts)
            .into_iter()
            .chain(right.last().map(|e| e.ts))
            .max()
            .unwrap_or_default();
        while self.join.on_end(end_ts, &mut join_out) {
            work += self.join.take_work();
            Self::forward(
                &mut join_out,
                &mut self.ops,
                &mut sink,
                &mut join_output_tuples,
                &mut join_output_puncts,
            );
        }
        for i in 0..self.ops.len() {
            let mut flushed = Vec::new();
            self.ops[i].on_end(&mut flushed);
            Self::forward_from(flushed, &mut self.ops[i + 1..], &mut sink);
        }

        PipelineReport { sink, join_output_tuples, join_output_puncts, work }
    }

    fn forward(
        join_out: &mut OpOutput,
        ops: &mut [Box<dyn UnaryOperator>],
        sink: &mut Sink,
        tuples: &mut u64,
        puncts: &mut u64,
    ) {
        let elements: Vec<StreamElement> = join_out.drain().collect();
        for e in &elements {
            match e {
                StreamElement::Tuple(_) => *tuples += 1,
                StreamElement::Punctuation(_) => *puncts += 1,
            }
        }
        Self::forward_from(elements, ops, sink);
    }

    fn forward_from(
        elements: Vec<StreamElement>,
        ops: &mut [Box<dyn UnaryOperator>],
        sink: &mut Sink,
    ) {
        match ops.split_first_mut() {
            None => {
                for e in elements {
                    sink.push(e);
                }
            }
            Some((first, rest)) => {
                let mut out = Vec::new();
                for e in elements {
                    first.on_element(e, &mut out);
                }
                Self::forward_from(out, rest, sink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group_by::{Aggregate, GroupBy};
    use crate::select::Select;
    use pjoin::PJoinBuilder;
    use punct_types::{Punctuation, Timestamp, Tuple, Value};

    fn tup(ts: u64, k: i64, v: i64) -> Timestamped<StreamElement> {
        Timestamped::new(Timestamp(ts), StreamElement::Tuple(Tuple::of((k, v))))
    }

    fn punct(ts: u64, k: i64) -> Timestamped<StreamElement> {
        Timestamped::new(
            Timestamp(ts),
            StreamElement::Punctuation(Punctuation::close_value(2, 0, k)),
        )
    }

    fn join() -> PJoin {
        PJoinBuilder::new(2, 2)
            .eager_purge()
            .propagate_every(1)
            .build()
    }

    #[test]
    fn join_only_pipeline() {
        let left = vec![tup(1, 7, 10), punct(5, 7)];
        let right = vec![tup(2, 7, 20), punct(6, 7)];
        let report = Pipeline::new(join()).execute(&left, &right);
        assert_eq!(report.sink.tuple_count(), 1);
        assert!(report.sink.punctuation_count() >= 1);
        assert_eq!(report.join_output_tuples, 1);
    }

    #[test]
    fn join_then_select() {
        let left = vec![tup(1, 1, 10), tup(2, 2, 10)];
        let right = vec![tup(3, 1, 5), tup(4, 2, 50)];
        let pipeline = Pipeline::new(join())
            .then(Select::new(|t| t.get(3).and_then(Value::as_int).is_some_and(|v| v >= 10)));
        assert_eq!(pipeline.describe(), "pjoin -> select");
        let report = pipeline.execute(&left, &right);
        assert_eq!(report.sink.tuple_count(), 1);
        assert_eq!(report.join_output_tuples, 2);
    }

    #[test]
    fn join_then_group_by_unblocks_via_propagation() {
        // Keys 1 and 2; both closed on both inputs -> group-by emits both
        // groups *before* stream end thanks to propagated punctuations.
        let left = vec![tup(1, 1, 0), tup(2, 2, 0), punct(10, 1), punct(11, 2)];
        let right = vec![
            tup(3, 1, 100),
            tup(4, 1, 200),
            tup(5, 2, 300),
            punct(12, 1),
            punct(13, 2),
        ];
        // Group on the A-side key (attr 0), sum the B-side value (attr 3).
        let pipeline = Pipeline::new(join()).then(GroupBy::new(0, 3, Aggregate::Sum));
        let report = pipeline.execute(&left, &right);
        let tuples = report.sink.tuples().into_iter().cloned().collect::<Vec<_>>();
        assert_eq!(tuples.len(), 2);
        let mut sums: Vec<(i64, f64)> = tuples
            .iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_int().unwrap(),
                    t.get(1).unwrap().as_numeric().unwrap(),
                )
            })
            .collect();
        sums.sort_by_key(|&(k, _)| k);
        assert_eq!(sums, vec![(1, 300.0), (2, 300.0)]);
    }

    #[test]
    fn group_by_blocks_without_propagation() {
        let no_prop = PJoinBuilder::new(2, 2).eager_purge().no_propagation().build();
        let left = vec![tup(1, 1, 0), punct(10, 1)];
        let right = vec![tup(3, 1, 100), punct(12, 1)];
        let report = Pipeline::new(no_prop).then(GroupBy::new(0, 3, Aggregate::Sum)).execute(
            &left,
            &right,
        );
        // Only the group-by's end-of-stream flush produces the result —
        // punctuation never reached it.
        assert_eq!(report.join_output_puncts, 0);
        assert_eq!(report.sink.tuple_count(), 1);
    }
}
