//! Offline shim for `crossbeam`: MPMC-shaped channels with a single
//! consumer.
//!
//! Only the `channel` module surface the DICE workspace uses is provided:
//! [`channel::unbounded`], [`channel::bounded`], cloneable senders, and
//! blocking receivers with an `iter()` drain and a `len()` depth probe
//! (mirroring real crossbeam's queue-length accessor, used by the gateway
//! for channel-depth telemetry). Receivers are single-consumer (the gateway
//! fan-in owns each receiver exclusively, so MPMC receive semantics are not
//! needed).
//!
//! `unbounded` channels wrap `std::sync::mpsc`. `bounded` channels are one
//! lock-guarded queue that the receiver drains whole: a receive that finds
//! its local buffer empty moves every queued message into that buffer in
//! one lock acquisition, and later receives pop from the buffer without
//! touching shared state. Senders signal the receiver only while it is
//! parked, and senders blocked on a full queue are woken by the drain that
//! empties it.

pub mod channel {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Sender::try_send`]: the value comes back either
    /// because a bounded channel is at capacity or because every receiver
    /// is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is bounded and full.
        Full(T),
        /// All receivers have disconnected.
        Disconnected(T),
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// An unbounded channel's sending side: the mpsc sender plus a depth
    /// counter shared with the receiver.
    struct ListSender<T> {
        tx: mpsc::Sender<T>,
        depth: Arc<AtomicUsize>,
    }

    enum SenderFlavor<T> {
        List(ListSender<T>),
        Array(Arc<Bounded<T>>),
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        flavor: SenderFlavor<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let flavor = match &self.flavor {
                SenderFlavor::List(list) => SenderFlavor::List(ListSender {
                    tx: list.tx.clone(),
                    depth: Arc::clone(&list.depth),
                }),
                SenderFlavor::Array(chan) => {
                    chan.lock().senders += 1;
                    SenderFlavor::Array(Arc::clone(chan))
                }
            };
            Sender { flavor }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if let SenderFlavor::Array(chan) = &self.flavor {
                let mut state = chan.lock();
                state.senders -= 1;
                let wake = state.senders == 0 && state.take_parked_receiver();
                drop(state);
                if wake {
                    chan.receiver_ready.notify_one();
                }
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking if the channel is bounded and full.
        ///
        /// # Errors
        ///
        /// Returns the value back if the receiver has disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.flavor {
                SenderFlavor::List(list) => {
                    // Count the message before it becomes visible: a
                    // receiver may otherwise consume (and decrement for) it
                    // ahead of a late post-send increment, underflowing the
                    // depth counter.
                    list.depth.fetch_add(1, Ordering::Relaxed);
                    list.tx.send(value).map_err(|e| {
                        list.depth.fetch_sub(1, Ordering::Relaxed);
                        SendError(e.0)
                    })
                }
                SenderFlavor::Array(chan) => chan.send(value),
            }
        }

        /// Sends `value` without ever blocking.
        ///
        /// # Errors
        ///
        /// Returns the value back as [`TrySendError::Full`] when a bounded
        /// channel is at capacity (an unbounded channel is never full) or
        /// as [`TrySendError::Disconnected`] when every receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            match &self.flavor {
                SenderFlavor::List(list) => {
                    // Pre-increment for the same reason as `send`.
                    list.depth.fetch_add(1, Ordering::Relaxed);
                    list.tx.send(value).map_err(|e| {
                        list.depth.fetch_sub(1, Ordering::Relaxed);
                        TrySendError::Disconnected(e.0)
                    })
                }
                SenderFlavor::Array(chan) => chan.try_send(value),
            }
        }
    }

    enum ReceiverFlavor<T> {
        List {
            rx: mpsc::Receiver<T>,
            depth: Arc<AtomicUsize>,
        },
        Array {
            chan: Arc<Bounded<T>>,
            /// Messages taken from the shared queue by the last drain and
            /// not yet returned, oldest first.
            local: RefCell<VecDeque<T>>,
        },
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        flavor: ReceiverFlavor<T>,
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if let ReceiverFlavor::Array { chan, .. } = &self.flavor {
                let mut state = chan.lock();
                state.receiver_alive = false;
                let wake = state.blocked_senders > 0;
                let orphaned = std::mem::take(&mut state.queue);
                drop(state);
                if wake {
                    chan.space_ready.notify_all();
                }
                drop(orphaned);
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] when the channel is empty and every sender
        /// has disconnected.
        pub fn recv(&self) -> Result<T, RecvError> {
            match &self.flavor {
                ReceiverFlavor::List { rx, depth } => {
                    let value = rx.recv().map_err(|_| RecvError)?;
                    depth.fetch_sub(1, Ordering::Relaxed);
                    Ok(value)
                }
                ReceiverFlavor::Array { chan, local } => {
                    chan.recv(&mut local.borrow_mut(), true).ok_or(RecvError)
                }
            }
        }

        /// Receives a value if one is immediately available.
        pub fn try_recv(&self) -> Option<T> {
            match &self.flavor {
                ReceiverFlavor::List { rx, depth } => {
                    let value = rx.try_recv().ok()?;
                    depth.fetch_sub(1, Ordering::Relaxed);
                    Some(value)
                }
                ReceiverFlavor::Array { chan, local } => chan.recv(&mut local.borrow_mut(), false),
            }
        }

        /// A blocking iterator that drains the channel until disconnection.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(|| self.recv().ok())
        }

        /// Messages sent but not yet received, including those a bounded
        /// receiver has drained into its local buffer (approximate under
        /// concurrent sends/receives, exact when quiescent).
        pub fn len(&self) -> usize {
            match &self.flavor {
                ReceiverFlavor::List { depth, .. } => depth.load(Ordering::Relaxed),
                ReceiverFlavor::Array { chan, local } => {
                    local.borrow().len() + chan.queued.load(Ordering::Relaxed)
                }
            }
        }

        /// Whether no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Draining iterator returned by [`Receiver::into_iter`].
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> Self::IntoIter {
            IntoIter { rx: self }
        }
    }

    /// The shared side of a bounded channel.
    struct Bounded<T> {
        state: Mutex<BoundedState<T>>,
        /// Wakes the parked receiver: a message arrived or the last sender
        /// left.
        receiver_ready: Condvar,
        /// Wakes senders blocked on a full queue: the receiver drained it
        /// or left.
        space_ready: Condvar,
        capacity: usize,
        /// Length of the shared queue, stored under the lock on every
        /// change so [`Receiver::len`] reads it without locking.
        queued: AtomicUsize,
    }

    struct BoundedState<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver_alive: bool,
        /// The receiver is waiting on `receiver_ready` and nobody has
        /// signalled it yet.
        receiver_parked: bool,
        /// Senders waiting on `space_ready`.
        blocked_senders: usize,
    }

    impl<T> BoundedState<T> {
        /// Claims the duty to wake a parked receiver, so that of several
        /// senders arriving before it runs only the first signals.
        fn take_parked_receiver(&mut self) -> bool {
            std::mem::replace(&mut self.receiver_parked, false)
        }
    }

    impl<T> Bounded<T> {
        /// Locks the state, recovering it from a poisoned lock: every
        /// update made under the lock is a single step that leaves the
        /// state valid, and no caller code runs while it is held.
        fn lock(&self) -> MutexGuard<'_, BoundedState<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Queues `value` in a locked state with room for it, then signals
        /// a parked receiver.
        fn push(&self, mut state: MutexGuard<'_, BoundedState<T>>, value: T) {
            state.queue.push_back(value);
            self.queued.store(state.queue.len(), Ordering::Relaxed);
            let wake = state.take_parked_receiver();
            drop(state);
            if wake {
                self.receiver_ready.notify_one();
            }
        }

        fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.lock();
            loop {
                if !state.receiver_alive {
                    return Err(SendError(value));
                }
                if state.queue.len() < self.capacity {
                    self.push(state, value);
                    return Ok(());
                }
                state.blocked_senders += 1;
                state = self
                    .space_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.blocked_senders -= 1;
            }
        }

        fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let state = self.lock();
            if !state.receiver_alive {
                Err(TrySendError::Disconnected(value))
            } else if state.queue.len() >= self.capacity {
                Err(TrySendError::Full(value))
            } else {
                self.push(state, value);
                Ok(())
            }
        }

        /// Pops the oldest message, refilling an empty `local` buffer by
        /// draining the whole shared queue. With `block`, parks until a
        /// message arrives; returns `None` once the queue is empty and, when
        /// blocking, every sender has left.
        fn recv(&self, local: &mut VecDeque<T>, block: bool) -> Option<T> {
            if local.is_empty() {
                let mut state = self.lock();
                while state.queue.is_empty() {
                    if !block || state.senders == 0 {
                        return None;
                    }
                    state.receiver_parked = true;
                    state = self
                        .receiver_ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                // Swapping keeps both buffers' capacity: a warm channel
                // allocates nothing.
                std::mem::swap(&mut state.queue, local);
                self.queued.store(0, Ordering::Relaxed);
                let wake = state.blocked_senders > 0;
                drop(state);
                if wake {
                    self.space_ready.notify_all();
                }
            }
            local.pop_front()
        }
    }

    /// Creates a channel with unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        let depth = Arc::new(AtomicUsize::new(0));
        (
            Sender {
                flavor: SenderFlavor::List(ListSender {
                    tx,
                    depth: Arc::clone(&depth),
                }),
            },
            Receiver {
                flavor: ReceiverFlavor::List { rx, depth },
            },
        )
    }

    /// Creates a channel whose shared queue holds at most `capacity`
    /// values; senders block while it is full. The receiver's last drain
    /// may hold up to `capacity` more. A zero capacity behaves as one (there
    /// is no rendezvous mode).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Bounded {
            state: Mutex::new(BoundedState {
                queue: VecDeque::new(),
                senders: 1,
                receiver_alive: true,
                receiver_parked: false,
                blocked_senders: 0,
            }),
            receiver_ready: Condvar::new(),
            space_ready: Condvar::new(),
            capacity: capacity.max(1),
            queued: AtomicUsize::new(0),
        });
        (
            Sender {
                flavor: SenderFlavor::Array(Arc::clone(&chan)),
            },
            Receiver {
                flavor: ReceiverFlavor::Array {
                    chan,
                    local: RefCell::new(VecDeque::new()),
                },
            },
        )
    }

    #[cfg(test)]
    mod tests {
        use super::{bounded, unbounded, Bounded, SendError, Sender, SenderFlavor, TrySendError};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        #[test]
        fn unbounded_round_trip_and_drain() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            drop((tx, tx2));
            let got: Vec<i32> = rx.iter().collect();
            assert_eq!(got, vec![1, 2]);
        }

        #[test]
        fn bounded_blocks_and_delivers_across_threads() {
            let (tx, rx) = bounded(1);
            let handle = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<i32> = rx.iter().collect();
            handle.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn disconnection_is_an_error() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.send(1).is_err());
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert!(rx.recv().is_err());
            let (tx, rx) = bounded::<u8>(4);
            drop(rx);
            assert!(tx.send(1).is_err());
            let (tx, rx) = bounded::<u8>(4);
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert!(rx.recv().is_err());
        }

        #[test]
        fn try_send_reports_full_and_disconnected() {
            let (tx, rx) = bounded(1);
            assert!(tx.try_send(1).is_ok());
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            assert_eq!(rx.recv(), Ok(1));
            assert!(tx.try_send(3).is_ok());
            drop(rx);
            // The queued value is lost with the receiver; further sends
            // report disconnection.
            assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
            let (tx, rx) = unbounded::<u8>();
            assert!(tx.try_send(9).is_ok());
            assert_eq!(rx.recv(), Ok(9));
            drop(rx);
            assert_eq!(tx.try_send(10), Err(TrySendError::Disconnected(10)));
        }

        #[test]
        fn len_tracks_queue_depth() {
            let (tx, rx) = unbounded();
            assert!(rx.is_empty());
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            tx.send(3).unwrap();
            assert_eq!(rx.len(), 3);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.try_recv(), Some(2));
            assert_eq!(rx.len(), 1);
            drop(tx);
            let rest: Vec<i32> = rx.into_iter().collect();
            assert_eq!(rest, vec![3]);
        }

        #[test]
        fn bounded_order_is_fifo_across_drains_with_cloned_senders() {
            let (tx, rx) = bounded(3);
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            tx.send(3).unwrap();
            // The first receive drains all three into the local buffer;
            // later sends queue behind them.
            assert_eq!(rx.recv(), Ok(1));
            tx2.send(4).unwrap();
            tx.send(5).unwrap();
            assert_eq!(rx.recv(), Ok(2));
            tx2.send(6).unwrap();
            drop((tx, tx2));
            let rest: Vec<i32> = rx.iter().collect();
            assert_eq!(rest, vec![3, 4, 5, 6]);
        }

        /// The shared state of a bounded channel, seen from its sender.
        fn shared<T>(tx: &Sender<T>) -> &Bounded<T> {
            match &tx.flavor {
                SenderFlavor::Array(chan) => chan,
                SenderFlavor::List(_) => panic!("not a bounded channel"),
            }
        }

        #[test]
        fn bounded_sender_blocked_on_full_queue_resumes_after_a_drain() {
            let (tx, rx) = bounded(2);
            tx.send(0).unwrap();
            tx.send(1).unwrap();
            let probe = tx.clone();
            let sent = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&sent);
            let handle = std::thread::spawn(move || {
                tx.send(2).unwrap();
                flag.store(true, Ordering::SeqCst);
            });
            while shared(&probe).lock().blocked_senders == 0 {
                std::thread::yield_now();
            }
            assert!(!sent.load(Ordering::SeqCst), "send must block while full");
            assert_eq!(rx.recv(), Ok(0));
            handle.join().unwrap();
            assert!(sent.load(Ordering::SeqCst));
            drop(probe);
            let rest: Vec<i32> = rx.iter().collect();
            assert_eq!(rest, vec![1, 2]);
        }

        #[test]
        fn dropping_the_receiver_unblocks_a_sender_with_an_error() {
            let (tx, rx) = bounded(1);
            tx.send(0).unwrap();
            let probe = tx.clone();
            let handle = std::thread::spawn(move || tx.send(1));
            while shared(&probe).lock().blocked_senders == 0 {
                std::thread::yield_now();
            }
            drop(rx);
            assert_eq!(handle.join().unwrap(), Err(SendError(1)));
        }

        #[test]
        fn bounded_len_counts_the_local_buffer() {
            let (tx, rx) = bounded(4);
            for i in 0..4 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.recv(), Ok(0));
            // Three messages wait in the receiver's local buffer and the
            // shared queue is empty; they still count.
            assert_eq!(rx.len(), 3);
            tx.send(4).unwrap();
            assert_eq!(rx.len(), 4);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.len(), 3);
        }

        #[test]
        fn bounded_try_recv_serves_the_local_buffer_first() {
            let (tx, rx) = bounded(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Some(1)); // drains 1 and 2
            tx.send(3).unwrap();
            assert_eq!(rx.try_recv(), Some(2)); // from the local buffer
            assert_eq!(rx.try_recv(), Some(3)); // drains the shared queue
            assert_eq!(rx.try_recv(), None);
            drop(tx);
            assert_eq!(rx.try_recv(), None);
        }

        #[test]
        fn bounded_receiver_wakes_when_the_last_sender_leaves() {
            let (tx, rx) = bounded::<u8>(1);
            let handle = std::thread::spawn(move || rx.recv());
            while !shared(&tx).lock().receiver_parked {
                std::thread::yield_now();
            }
            drop(tx);
            assert!(handle.join().unwrap().is_err());
        }

        #[test]
        fn bounded_many_senders_deliver_everything_in_per_sender_order() {
            let (tx, rx) = bounded(3);
            let handles: Vec<_> = (0..4u32)
                .map(|s| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..500u32 {
                            tx.send((s, i)).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut next = [0u32; 4];
            for (s, i) in rx.iter() {
                assert_eq!(i, next[s as usize], "sender {s} out of order");
                next[s as usize] += 1;
            }
            for handle in handles {
                handle.join().unwrap();
            }
            assert_eq!(next, [500; 4]);
        }
    }
}
