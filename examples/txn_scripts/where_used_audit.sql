-- Where-used audit: read-only and autocommit.  Autocommit statements
-- acquire locks non-parking (fail fast), so this script can never be
-- party to a deadlock.  The two selects never declare READ ONLY, so
-- they see different commit points and still take shared locks: the
-- analyzer lists a may-conflict edge to every assembly writer.
-- readonly_audit.sql is the declared twin, with no edge.
SELECT l.left, l.right, l.eff_from, l.eff_to FROM link l WHERE l.right = 205;
SELECT a.obid, a.name, a.state FROM assy a WHERE a.obid IN (100, 101);
