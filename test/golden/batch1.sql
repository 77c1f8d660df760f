INSERT INTO region VALUES (3, 'Zürich', FALSE);
INSERT INTO shop VALUES (3, 3, 'kiosk');
INSERT INTO sale VALUES (10, 3, 2, 7.25);
INSERT INTO sale VALUES (11, 1, 1, 0.5);
