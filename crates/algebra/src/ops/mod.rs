//! Relational operators: the six basic operations, group-by & aggregation,
//! θ-joins, and the paper's four new operations.

pub mod aggjoin;
pub mod anti_join;
pub mod basic;
pub mod groupby;
pub mod join;
pub mod merge_improve;
pub mod union_by_update;

pub use aggjoin::{mm_join, mv_join, MvOrientation};
pub(crate) use anti_join::semi_join_par;
pub use anti_join::{anti_join, anti_join_basic_ops, anti_join_par, semi_join, AntiJoinImpl};
pub(crate) use basic::project_par;
pub use basic::{
    difference, distinct, product, project, rename, select, select_par, union_all, union_distinct,
};
pub use groupby::{group_by, group_by_par, window};
pub use join::{
    join, join_on, join_par, last_join_phases, JoinKeys, JoinOrders, JoinPhases, JoinType,
};
pub use merge_improve::{ubu_merge_improve, ubu_replace_cols, Delta, KeyLookup, Replaced};
pub use union_by_update::{union_by_update, UbuImpl};
