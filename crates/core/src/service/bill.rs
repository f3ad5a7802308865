//! The §IV bill: every attempt's flow windows, harvested once, the
//! apportioning of a fused work item's window among its members, and the
//! quiescence audit that checks the windows partition the global meters.

use super::FsdService;
use crate::artifacts::{ARTIFACT_BUCKET, INPUTS};
use fsd_comm::MeterSnapshot;
use fsd_faas::LambdaSnapshot;

/// A comm + Lambda bill: the meter windows of a set of request attempts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Bill {
    /// Comm-service billing.
    pub comm: MeterSnapshot,
    /// Lambda billing.
    pub lambda: LambdaSnapshot,
}

impl Bill {
    /// Element-wise sum.
    fn plus(&self, other: &Bill) -> Bill {
        Bill {
            comm: self.comm.plus(&other.comm),
            lambda: self.lambda.plus(&other.lambda),
        }
    }
}

/// Splits every counter of `window` that `counters` lists by `shares`
/// (summing to more than 0): each part gets the floor of its share, and
/// the units left over go one each to the earliest parts, so the parts sum
/// to the window exactly.
pub(super) fn apportion<S: Copy + Default, const N: usize>(
    mut window: S,
    shares: &[u64],
    counters: fn(&mut S) -> [&mut u64; N],
) -> Vec<S> {
    let total = u128::from(shares.iter().sum::<u64>());
    let mut parts = vec![S::default(); shares.len()];
    for (k, counter) in counters(&mut window).into_iter().enumerate() {
        let mut left = *counter;
        for (part, &share) in parts.iter_mut().zip(shares) {
            let floor = (u128::from(*counter) * u128::from(share) / total) as u64;
            *counters(part)[k] = floor;
            left -= floor;
        }
        for part in &mut parts[..left as usize] {
            *counters(part)[k] += 1;
        }
    }
    parts
}

/// Every harvested flow window, split by how its attempt ended.
#[derive(Clone, Copy, Default)]
pub(super) struct Harvest {
    /// Σ of the successful reports' `comm` and `lambda`.
    served: Bill,
    /// Σ of the failed attempts' windows.
    failed: Bill,
}

impl FsdService {
    /// Releases `flow`'s billing windows on both meters and adds them to
    /// the service's bills: a failed attempt's calls were made and billed
    /// (AWS semantics), so its window goes to the failed-attempt bill, a
    /// `served` one's to the served sum. Returns the window.
    pub(super) fn harvest_flow(&self, flow: u64, served: bool) -> Bill {
        let bill = Bill {
            comm: self.env.release_flow(flow),
            lambda: self.platform.lambda_meter().release_flow(flow),
        };
        let mut bills = self.bills.lock();
        let sum = if served {
            &mut bills.served
        } else {
            &mut bills.failed
        };
        *sum = sum.plus(&bill);
        bill
    }

    /// What failed request attempts have been billed so far. Failed
    /// attempts are billed (as on AWS); this bill, the successful
    /// [`crate::InferenceReport`]s' windows and the meters' unattributed
    /// windows partition the global comm and Lambda meters exactly
    /// ([`FsdService::audit`]).
    pub fn failed_attempt_bill(&self) -> Bill {
        self.bills.lock().failed
    }

    /// The quiescence check: one line per violated invariant, empty when
    /// clean. Call it only when no request is in flight — a running
    /// request's resources and open windows read as violations; the
    /// serving path never calls it. It checks:
    ///
    /// * the region's residue ([`fsd_comm::CloudEnv::residue_report`]:
    ///   queues, subscriptions, data-bucket objects, direct connections
    ///   and frames, weight frames, open comm windows);
    /// * open Lambda billing windows;
    /// * staged request inputs left in the artifact bucket;
    /// * the billing partition, for the comm and the Lambda meter alike:
    ///   global = unattributed + Σ successful reports + failed-attempt
    ///   bill;
    /// * trees alive but neither parked nor dropped, whether or not the
    ///   shelf holds trees.
    pub fn audit(&self) -> Vec<String> {
        let mut found = self.env.residue_report();
        let (meter, lambda) = (self.env.meter(), self.platform.lambda_meter());
        let store = self.env.object_store();
        for (count, what) in [
            (lambda.tracked_flows(), "open Lambda billing window(s)"),
            (
                store.object_count(ARTIFACT_BUCKET, INPUTS),
                "staged input(s)",
            ),
            (self.pool.in_use(), "tree(s) still in service"),
        ] {
            if count > 0 {
                found.push(format!("{count} {what}"));
            }
        }
        let bills = *self.bills.lock();
        let (global, unattributed) = (
            Bill {
                comm: meter.snapshot(),
                lambda: lambda.snapshot(),
            },
            Bill {
                comm: meter.unattributed(),
                lambda: lambda.unattributed(),
            },
        );
        let parts = unattributed.plus(&bills.served).plus(&bills.failed);
        if parts != global {
            found.push(format!(
                "billing partition: meters {global:?} != unattributed + served + failed {parts:?}"
            ));
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{served_once, small_service};
    use super::*;
    use crate::engine::{BatchedRequest, Variant};
    use crate::error::FsdError;
    use crate::warm::WorkerTree;
    use crate::worker::RunOutput;
    use fsd_comm::VirtualTime;

    #[test]
    fn apportioned_parts_take_their_floors_and_the_earliest_the_rest() {
        let window = LambdaSnapshot {
            invocations: 10,
            mb_ms: 22,
        };
        let split = |shares: &[u64]| {
            let parts = apportion(window, shares, LambdaSnapshot::counters_mut);
            let field = |f: fn(&LambdaSnapshot) -> u64| parts.iter().map(f).collect::<Vec<_>>();
            (field(|p| p.invocations), field(|p| p.mb_ms))
        };
        assert_eq!(split(&[1, 1, 1]), (vec![4, 3, 3], vec![8, 7, 7]));
        assert_eq!(split(&[4, 5, 6, 7]), (vec![2, 3, 2, 3], vec![4, 5, 6, 7]));
        assert_eq!(split(&[0, 3]), (vec![0, 10], vec![0, 22]));
        assert_eq!(split(&[5]), (vec![10], vec![22]));
    }

    #[test]
    fn the_audit_names_each_planted_violation() {
        // A plant returns the tree it holds, if any, until the audit ran.
        type Plant = fn(&FsdService) -> Option<WorkerTree>;
        let plants: [(&str, Plant); 4] = [
            ("staged input(s)", |service| {
                let store = service.env().object_store();
                store
                    .put_offline(ARTIFACT_BUCKET, "inputs/req99/b0", &b"x"[..])
                    .expect("the artifact bucket exists");
                None
            }),
            ("open Lambda billing window(s)", |service| {
                service
                    .platform()
                    .lambda_meter()
                    .record(99, |s| s.mb_ms += 1);
                None
            }),
            ("billing partition", |service| {
                // Billed to a flow no report covers, then released.
                let meter = service.env().meter();
                meter.record(99, |s| s.sqs_api_calls += 1);
                meter.release_flow(99);
                None
            }),
            ("tree(s) still in service", |service| {
                let key = service.shape(Variant::Queue, 2, 1769);
                Some(service.new_tree(key, 0).expect("launches"))
            }),
        ];
        // A held tree is reported whether or not the shelf holds trees.
        for pooled in [true, false] {
            for (named, plant) in plants {
                let service = served_once(41, pooled);
                let _held = plant(&service);
                let found = service.audit();
                assert!(
                    found.iter().any(|l| l.contains(named)),
                    "pooled={pooled}: {found:?}"
                );
            }
        }
    }

    /// A run that ends without a worker report or without an output is a
    /// failure, and its already-billed window goes to the failed-attempt
    /// bill like any other.
    #[test]
    fn a_run_without_reports_or_outputs_is_billed_as_a_failure() {
        let (service, inputs, _) = small_service(42);
        let req = BatchedRequest {
            variant: Variant::Queue,
            workers: 1,
            memory_mb: 1769,
            batches: vec![inputs],
        };
        let no_output = {
            let mut run = RunOutput::new(crate::LaunchPath::ColdStart);
            let report = fsd_faas::InvocationReport {
                started: VirtualTime::ZERO,
                finished: VirtualTime::from_micros(5),
                billed_ms: 1,
                peak_mem_bytes: 0,
                memory_mb: 1769,
            };
            run.reports.push((0, report));
            run
        };
        let cases = [
            (
                RunOutput::new(crate::LaunchPath::ColdStart),
                FsdError::NoWorkerReports,
            ),
            (no_output, FsdError::MissingOutput),
        ];
        for (i, (run, error)) in cases.into_iter().enumerate() {
            let flow = service.open_flow();
            service.stage_request(&req, &service.partition(1), flow, false);
            service.env().meter().record(flow, |s| s.sqs_api_calls += 1);
            service
                .platform()
                .lambda_meter()
                .record(flow, |s| s.mb_ms += 7);
            let result = service.finalize_report(Variant::Queue, 1, &req, flow, Ok(run));
            assert_eq!(result.unwrap_err(), error);
            assert_eq!(service.audit(), Vec::<String>::new(), "{error}");
            let bill = service.failed_attempt_bill();
            let n = i as u64 + 1;
            assert_eq!((bill.comm.sqs_api_calls, bill.lambda.mb_ms), (n, 7 * n));
        }
    }
}
